"""Differentiable objectives: analytic landscapes and a small MLP classifier.

Every objective exposes the same contract: ``eval_loss`` and ``eval_grad``
are pure functions of (spec, parameter vector, batch) and always include the
``weight_decay * ||w||^2`` regularization term in both the loss and the
gradient. Analytic landscapes ignore the batch (pass ``None``).

Each kernel's order of floating-point operations is part of the run-directory
contract: every loss, norm and weight a run writes descends from it, and runs
must stay bit-reproducible across versions of this module. A kernel may be
made cheaper (fewer calls, in-place updates, unused products dropped) only
while it performs the same operations, in the same order, on the same
operands. Property tests pin the MLP and the sharp/flat landscape byte for
byte to earlier kernels kept in ``tests/helpers.py``.

What is fixed for a spec is worked out once, into the ``Plan`` that the
spec keeps (``ObjectiveSpec.plan``): the kernel of its kind (also run by
``sharp_flat_ridge``) with the MLP layout and activation or the landscape's
constants bound in, the parameter count, the weight decay, the
finiteness screen's cached zero vector and the buffers that the MLP's
gradient and the gradient's weight-decay term are written to. A spec is
frozen, its arrays included, so its plan cannot go stale.

What depends only on the targets is done once: the dtype and range checks,
the flat index (row * classes + target) through which the loss picks each
target logit, and a one-hot mask of the targets (``data._index_targets``).
The training loop does it once per epoch, in the pass that cuts the epoch:
``data.make_batches``, given the class count, keeps each batch's slices of
the epoch's index and mask on the batch. Any other batch is checked and
indexed on its first MLP evaluation. Both live on the batch, so nothing
outlives it, with their targets array and class count, and only for a
read-only array (``Batch`` freezes its targets), so a later write to the
targets cannot leave them stale and new targets are a new array that
misses them.
Every call still checks the parameter count, that the batch is there, its
input width and that its inputs and targets agree on row count, and the loss
and gradient for finiteness.

The gradient subtracts 1 at each target logit as ``d_z -= onehot``. That
gives the bits of subtracting 1 at the flat index: at a target it is the
same subtraction, and elsewhere it subtracts 0.0, and x - 0.0 has the bits
of x for every double, -0.0 and NaN included.

Every matrix product of the MLP kernel is an ``np.dot`` call where it can
be, not ``np.matmul``. ``np.dot`` reaches the BLAS routine that ``np.matmul``
reaches (``gemm`` with the same transpose flags, ``gemv`` or ``ddot``) and
gives its bits, without the ufunc dispatch that costs ``np.matmul`` about
0.3 us a call: on the moons MLP's 82 weights a product is mostly dispatch.
That holds while every operand is C- or F-contiguous and the product sums
over more than one term. Otherwise the two can take different routes and
differ in the last bit or in the sign of a zero:

- an operand that is neither C- nor F-contiguous, such as a hand-built
  batch's inputs with reversed columns or a weight vector with a stride of
  2: ``np.dot`` copies it and calls BLAS on the copy, where ``np.matmul``
  takes another path (its own loop, or ``gemv`` for one row or column);
- a product over one term (a one-row batch's weight gradient, a one-unit
  layer or one-feature input) is a plain multiply or an outer-product
  update under ``np.dot``, which can give -0.0 where ``np.matmul`` gives
  0.0.

So the kernel uses ``np.matmul`` for every product of a call that meets
either case: a ``forc`` flag per caller's array decides the first, and the
shapes, fixed per spec and row count, the second. The analytic landscapes'
products stay ``@``: no benchmark workload runs them.

One kernel, ``_mlp_kernel``'s, serves ``eval_grad``, ``eval_loss``,
``eval_heldout`` and ``mlp_accuracy``. It writes every intermediate into
scratch memory that it keeps: hidden activations and their transposes,
logits, softmax terms and backprop buffers, built once per row count, the
per-layer weight views of the last ``KEPT_WEIGHTS`` weight buffers, and
per-layer views, made once, of the plan's gradient buffer. Evaluations of
one spec share its plan's buffers, so one spec must not be evaluated from
two threads at once; no code here does. The returned loss, gradient and
accuracy never alias a buffer: the gradient is a new array on every call,
made by adding the weight-decay term (``np.add``) or, with none, a copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import Batch, _index_targets
from .errors import ConfigurationError, NumericError, check_number
from .params import ParamVector, _zeros, all_finite

ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective's definition, frozen arrays included: a plan worked out from it stays valid."""

    kind: str
    weight_decay: float = 0.0
    # quadratic: L = 0.5 w'Aw - b'w
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    # rosenbrock
    dim: int | None = None
    # sharp_flat landscape geometry
    width_sharp: float | None = None
    width_flat: float | None = None
    depth_gap: float | None = None
    separation: float | None = None
    # mlp classifier
    layer_sizes: tuple[int, ...] | None = None
    activation: str | None = None

    def __post_init__(self):
        for name in ("a", "b"):
            if getattr(self, name) is not None:
                frozen = np.array(getattr(self, name), dtype=np.float64)
                frozen.flags.writeable = False
                object.__setattr__(self, name, frozen)
        if self.layer_sizes is not None:
            object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))

    @property
    def param_count(self) -> int:
        if self.kind == "quadratic":
            return self.a.shape[0]
        if self.kind == "rosenbrock":
            return self.dim
        if self.kind == "sharp_flat":
            return 2
        return _mlp_layout(self.layer_sizes)[-1][-1]

    @property
    def input_dim(self) -> int | None:
        return self.layer_sizes[0] if self.kind == "mlp_classifier" else None

    @functools.cached_property
    def plan(self) -> Plan:
        """What every evaluation of this spec needs, worked out on first use."""
        return _plan(self)


def make_quadratic(a, b=None, weight_decay: float = 0.0) -> ObjectiveSpec:
    """L(w) = 0.5 w'Aw - b'w + weight_decay ||w||^2 with symmetric A."""
    a = _numbers("a", a, float, depth=2)
    if not a or any(len(row) != len(a) for row in a):
        raise ConfigurationError("quadratic matrix must be square")
    a = np.array(a, dtype=np.float64)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ConfigurationError("quadratic matrix must be symmetric")
    b = np.zeros(a.shape[0]) if b is None else np.array(_numbers("b", b, float))
    if b.shape != (a.shape[0],):
        raise ConfigurationError("quadratic offset b must match the matrix dimension")
    check_number("weight_decay", weight_decay, float, 0)
    return ObjectiveSpec(kind="quadratic", a=a, b=b, weight_decay=weight_decay)


def make_rosenbrock(dim: int = 2, weight_decay: float = 0.0) -> ObjectiveSpec:
    check_number("dim", dim, int, 2)
    check_number("weight_decay", weight_decay, float, 0)
    return ObjectiveSpec(kind="rosenbrock", dim=dim, weight_decay=weight_decay)


def make_sharp_flat(width_sharp: float, width_flat: float, depth_gap: float,
                    separation: float) -> ObjectiveSpec:
    """A smooth 2-D landscape with one narrow and one wide local minimum.

    The wells sit on the x axis at -separation/2 (sharp) and +separation/2
    (flat). Curvature at a well bottom is exactly 1/width^2 in both
    coordinates, the flat well bottoms out at loss 0 and the sharp well at
    -depth_gap, and the gradient vanishes exactly at both designed minima.
    A quartic envelope keeps the landscape confining far from the wells.
    """
    for name, value in [("width_sharp", width_sharp), ("width_flat", width_flat),
                        ("depth_gap", depth_gap), ("separation", separation)]:
        check_number(name, value, float)
    if not (0.0 < width_sharp < width_flat):
        raise ConfigurationError("need 0 < width_sharp < width_flat")
    if separation <= 0.0:
        raise ConfigurationError("separation must be positive")
    if depth_gap < 0.0:
        raise ConfigurationError("depth_gap must be nonnegative")
    return ObjectiveSpec(
        kind="sharp_flat",
        width_sharp=float(width_sharp),
        width_flat=float(width_flat),
        depth_gap=float(depth_gap),
        separation=float(separation),
    )


def make_mlp_classifier(layer_sizes, activation: str = "tanh",
                        weight_decay: float = 0.0) -> ObjectiveSpec:
    sizes = tuple(_numbers("layer_sizes", layer_sizes, int, minimum=1))
    if len(sizes) < 2:
        raise ConfigurationError("mlp needs at least input and output layers")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}")
    check_number("weight_decay", weight_decay, float, 0)
    return ObjectiveSpec(
        kind="mlp_classifier", layer_sizes=sizes, activation=activation,
        weight_decay=weight_decay,
    )


# kind -> builder; a config's objective section is its builder's parameters, plus the kind
BUILDERS = {"quadratic": make_quadratic, "rosenbrock": make_rosenbrock,
            "sharp_flat": make_sharp_flat, "mlp_classifier": make_mlp_classifier}
OBJECTIVE_KINDS = tuple(BUILDERS)


def _numbers(name, values, kind, depth=1, minimum=None):
    """``values`` as lists nested ``depth`` deep of numbers that pass ``check_number``.

    A numpy array or a tuple stands for a list.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list, not {values!r}")
    if depth > 1:
        return [_numbers(name, row, kind, depth - 1, minimum) for row in values]
    for value in values:
        check_number(name, value, kind, minimum)
    return list(values)


# ---------------------------------------------------------------------------
# parameter vectors

def param_segments(spec: ObjectiveSpec):
    """The parameter layout, ``(name, start, length)`` per segment in order, covering
    every parameter: ``w`` for an analytic objective, ``layer{i}.W``/``.b`` per MLP layer."""
    if spec.kind != "mlp_classifier":
        return [("w", 0, spec.param_count)]
    segments = []
    for layer, (_, _, lo, mid, hi) in enumerate(_mlp_layout(spec.layer_sizes)):
        segments += [(f"layer{layer}.W", lo, mid - lo), (f"layer{layer}.b", mid, hi - mid)]
    return segments


def init_params(spec: ObjectiveSpec, seed: int) -> ParamVector:
    """Deterministic initialization.

    MLP weights are standard normal scaled by 1/sqrt(fan_in), biases zero,
    drawn layer by layer from ``np.random.default_rng(seed)``. Analytic
    objectives start at a standard normal point from the same generator.
    """
    rng = np.random.default_rng(seed)
    if spec.kind != "mlp_classifier":
        return ParamVector(rng.standard_normal(spec.param_count))
    values = np.zeros(spec.param_count)
    for fan_in, fan_out, lo, mid, _ in _mlp_layout(spec.layer_sizes):
        values[lo:mid] = (rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)).ravel()
    return ParamVector(values)


@functools.cache
def _mlp_layout(layer_sizes):
    """Per layer: (fan_in, fan_out, weight start, weight stop = bias start, bias stop)."""
    layout = []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        w_stop = offset + fan_in * fan_out
        layout.append((fan_in, fan_out, offset, w_stop, w_stop + fan_out))
        offset = w_stop + fan_out
    return tuple(layout)


# ---------------------------------------------------------------------------
# loss / gradient evaluation

def eval_loss(spec: ObjectiveSpec, w: ParamVector | np.ndarray,
              batch: Batch | None = None) -> float:
    loss, _ = _evaluate(spec, w, batch, False)
    return loss


def eval_grad(spec: ObjectiveSpec, w: ParamVector | np.ndarray, batch: Batch | None = None):
    """Returns (loss, gradient); the gradient includes the 2*wd*w term.

    ``w`` is a ParamVector or a 1-D float64 array of finite weights. Overflow
    raises NumericError; numpy warns of it first unless the caller turned its
    floating-point warnings off, as the training loop does. The gradient is
    checked with ``params.all_finite``, one dot product with zeros: it adds
    an "invalid value" warning only for a gradient that is not finite, just
    before that NumericError, and never warns on a finite one.

    The intermediates go to the spec's plan's buffers (see the module
    docstring); the gradient is a new array on every call.
    """
    return _evaluate(spec, w, batch, True)


def eval_heldout(spec: ObjectiveSpec, values: np.ndarray, batch: Batch):
    """(loss, accuracy) of the MLP on ``batch`` from a single forward pass.

    The loss has the bits of ``eval_loss``'s.
    """
    loss, logits = _evaluate(spec, values, batch, False)
    return loss, float(np.mean(np.argmax(logits, axis=1) == batch.targets))


def _scalar(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, which numpy multiplies by faster than a float."""
    scalar = np.array(float(value))
    scalar.flags.writeable = False
    return scalar


class Plan(NamedTuple):
    """What every evaluation of one spec needs, worked out once and kept on the spec."""

    size: int  # parameter count
    kernel: Callable  # (weights, batch, with_grad) -> (loss, gradient or logits)
    weight_decay: float
    zeros: np.ndarray  # the finiteness screen's, cached and read-only
    twice_wd: np.ndarray  # 2 * weight_decay, for the gradient's decay term (``_scalar``)
    decay: np.ndarray  # the decay term 2 * weight_decay * w, written before it is added
    grad: np.ndarray | None  # the MLP kernel's gradient, written in place; None for the others


def _plan(spec):
    kind = spec.kind
    grad = None
    if kind == "quadratic":
        a, b = spec.a, spec.b

        def kernel(x, batch, with_grad):
            ax = a @ x
            return 0.5 * float(x @ ax) - float(b @ x), (ax - b if with_grad else None)
    elif kind == "rosenbrock":
        kernel = _rosenbrock
    elif kind == "sharp_flat":
        kernel = _sharp_flat_kernel(spec)
    elif kind == "mlp_classifier":
        grad = np.empty(spec.param_count)
        kernel = _mlp_kernel(spec, grad)
    else:
        raise ConfigurationError(f"unknown objective kind {kind!r}")
    size = spec.param_count
    return Plan(size, kernel, spec.weight_decay, _zeros(size), _scalar(2.0 * spec.weight_decay),
                np.empty(size), grad)


def _evaluate(spec, w, batch, with_grad):
    """(loss, gradient); without the gradient, (loss, MLP logits in the plan's buffer or None)."""
    size, kernel, wd, zeros, twice_wd, decay, scratch = spec.plan
    x = w.values if isinstance(w, ParamVector) else w
    if x.size != size:
        raise ConfigurationError(
            f"parameter vector has {x.size} values, objective expects {size}"
        )
    loss, grad = kernel(x, batch, with_grad)
    if wd != 0.0:
        # x.dot(x) gives the bits of x @ x, without matmul's dispatch, on a 1-D float64
        # array of positive stride; with a negative stride the two may differ in the last bit
        loss = loss + wd * float(x.dot(x))
        if with_grad:
            grad = np.add(grad, np.multiply(twice_wd, x, out=decay))  # a new array
    elif with_grad and grad is scratch:
        grad = grad.copy()

    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss from {spec.kind} objective")
    if with_grad and not all_finite(grad, zeros):
        raise NumericError(f"non-finite gradient from {spec.kind} objective")
    return float(loss), grad


def _rosenbrock(x, batch, with_grad):
    d = x.size
    a = x[1:] - x[:-1] ** 2
    b = 1.0 - x[:-1]
    loss = float(100.0 * np.sum(a * a) + np.sum(b * b))
    if not with_grad:
        return loss, None
    grad = np.zeros(d)
    grad[:-1] = -400.0 * x[:-1] * a - 2.0 * b
    grad[1:] += 200.0 * a
    return loss, grad


# ---------------------------------------------------------------------------
# sharp/flat landscape internals

def sharp_flat_centers(spec: ObjectiveSpec):
    """((x_sharp, 0), (x_flat, 0)) well-bottom locations."""
    half = spec.separation / 2.0
    return (-half, 0.0), (half, 0.0)


# y-curvature as a fraction of the x-curvature at each well. Anisotropy keeps
# the perturbed-gradient oscillation from locking onto the y axis: the softer
# y mode contracts while the stiff x mode carries the escape dynamics.
Y_CURVATURE_RATIO = 0.25


def _sharp_flat_constants(spec):
    """(sep, gap, m_s, m_f, h_f, h_gap, scale) of the geometry, for the kernel and the screen."""
    sep = spec.separation
    h_s = 1.0 / spec.width_sharp**2
    h_f = 1.0 / spec.width_flat**2
    return sep, spec.depth_gap, -sep / 2.0, sep / 2.0, h_f, h_s - h_f, 1.0 / (2.0 * sep * sep)


def _sharp_flat_kernel(spec):
    """The landscape's kernel, its geometry's constants worked out once."""
    sep, gap, m_s, m_f, h_f, h_gap, scale = _sharp_flat_constants(spec)
    du = -1.0 / sep
    half_ratio = 0.5 * Y_CURVATURE_RATIO

    def kernel(x, batch, with_grad):
        px, py = x.tolist()
        u = (m_f - px) / sep  # 0 at the flat bottom, 1 at the sharp bottom
        # sig is a C-infinity step in u: 0 for u <= 0, 1 for u >= 1, monotone
        # between; dsig, its derivative, comes from the same two exp calls
        if u <= 0.0:
            sig = dsig = 0.0
        elif u >= 1.0:
            sig, dsig = 1.0, 0.0
        else:
            a = math.exp(-1.0 / u)
            b = math.exp(-1.0 / (1.0 - u))
            sig, dsig = a / (a + b), 0.0
            # where an exp underflows the true derivative is below 1e-300 anyway
            if with_grad and a != 0.0 and b != 0.0:
                dsig = a * b * (1.0 / u**2 + 1.0 / (1.0 - u) ** 2) / (a + b) ** 2
        h = h_f + h_gap * sig
        qa, qb = px - m_s, px - m_f
        q = qa * qa * qb * qb
        hy = Y_CURVATURE_RATIO * h
        loss = q * h * scale - gap * sig + 0.5 * hy * py * py
        if not with_grad:
            return loss, None
        dsig = dsig * du
        dh = h_gap * dsig
        dq = 2.0 * qa * qb * qb + 2.0 * qa * qa * qb
        gx = (dq * h + q * dh) * scale - gap * dsig + half_ratio * dh * py * py
        return loss, np.array([gx, hy * py])

    return kernel


def _sharp_flat_screen(spec, xs):
    """The kernel's loss at (x, 0.0) for each x of ``xs``, in one pass over arrays.

    It repeats the kernel's operations elementwise, in its order and with its
    branches for u <= 0 and u >= 1, except that numpy's ``exp`` stands for
    ``math.exp``; the two can differ in the last bit, so ``sharp_flat_ridge``
    only screens with it. It works in place in four arrays of ``xs``'s size:
    a fresh 160 KB array costs more in page faults than an operation on it.
    """
    sep, gap, m_s, m_f, h_f, h_gap, scale = _sharp_flat_constants(spec)
    with np.errstate(all="ignore"):  # overflow gives what the kernel's floats give
        u = np.subtract(m_f, xs)
        u /= sep
        # the smooth step at every point, then its branches: 0 for u <= 0, 1 for u >= 1
        sig = np.divide(-1.0, u)
        b = np.subtract(1.0, u)
        np.exp(sig, out=sig)
        np.exp(np.divide(-1.0, b, out=b), out=b)
        sig /= np.add(sig, b, out=b)
        np.copyto(sig, 0.0, where=u <= 0.0)
        np.copyto(sig, 1.0, where=u >= 1.0)
        h = np.multiply(h_gap, sig, out=b)
        h += h_f  # h_f + h_gap * sig: IEEE addition gives the same bits in either order
        gap_sig = np.multiply(gap, sig, out=sig)
        q = np.subtract(xs, m_s, out=u)  # qa
        qb = np.subtract(xs, m_f)
        q *= q
        q *= qb
        q *= qb  # qa * qa * qb * qb
        q *= h
        q *= scale
        q -= gap_sig
        term = np.multiply(Y_CURVATURE_RATIO, h, out=qb)  # hy
        term *= 0.5
        term *= 0.0
        term *= 0.0  # 0.5 * hy * py * py at py = 0.0: 0.0, or NaN where hy is not finite
        q += term
    return q


# the screen's window, as a share of the bound B on the landscape's terms (sharp_flat_ridge)
_RIDGE_WINDOW = 2.0**-32

_RIDGE_CACHE: dict[tuple, float] = {}


def sharp_flat_ridge(spec: ObjectiveSpec) -> float:
    """x coordinate of the loss maximum between the two wells (on y = 0).

    Located on a dense grid of 20,001 points; it is the watershed separating
    the two basins under gradient flow, used to classify which basin a run
    ended in. The answer has the bits of a scan that runs the kernel at
    every point and takes ``np.argmax``, the first largest loss or the first
    NaN, at a small share of the cost.

    ``_sharp_flat_screen`` gives every point's loss in one array pass. It
    differs from the kernel only through ``exp``. Each ``exp`` is within a
    few ulps of the true value (numpy's and libm's were at most 1 ulp apart
    on 3 million arguments), so the two smooth steps differ by under 16
    units of 2**-53. With the roundings of the terms that follow, a screened
    loss is within 2**-48 * B of the kernel's, where B = separation**2 /
    (32 * width_sharp**2) + depth_gap bounds the landscape's terms between
    the wells. In 1,803 geometries about 3% of the points differed at all,
    by at most 2**-51 * B. So the kernel's largest loss, and every point
    that ties it, is screened within 2**-47 * B of the screen's largest. The
    candidates are the points screened within ``_RIDGE_WINDOW`` * B of the
    screen's largest, a window 2**15 times wider than that. The kernel runs
    on them alone, in grid order, and the first largest wins. On the
    calibration, two other geometries and 300 random ones (width_sharp
    0.02-0.5, width ratio 1.01-20, depth gap 0-1, separation 0.25-4), at
    most 5 points were candidates. Where the flat well's end of the segment
    is a plateau (a width ratio in the hundreds, or a depth gap that swamps
    the quartic), up to 873 of 1,500 wider geometries were.
    A screened value that is not finite (a quartic that overflows, a NaN)
    leaves every point a candidate: the full scan, whose ``np.argmax``
    picks the first NaN.
    """
    key = (spec.width_sharp, spec.width_flat, spec.depth_gap, spec.separation)
    if key not in _RIDGE_CACHE:
        m_s, m_f = sharp_flat_centers(spec)
        xs = np.linspace(m_s[0], m_f[0], 20001)
        screened = _sharp_flat_screen(spec, xs)
        if np.isfinite(screened).all():
            sep, width = spec.separation, spec.width_sharp
            bound = sep * sep / (32.0 * width * width) + spec.depth_gap
            candidates = np.flatnonzero(screened >= screened.max() - _RIDGE_WINDOW * bound)
        else:
            candidates = np.arange(xs.size)
        kernel = spec.plan.kernel
        # the kernel reads its point from an array: each candidate is a row (x, 0.0)
        vals = [kernel(point, None, False)[0]
                for point in np.column_stack((xs[candidates], np.zeros(candidates.size)))]
        _RIDGE_CACHE[key] = float(xs[candidates[int(np.argmax(vals))]])
    return _RIDGE_CACHE[key]


def classify_basin(spec: ObjectiveSpec, w: ParamVector) -> str:
    """'sharp' or 'flat' depending on which side of the ridge w sits."""
    return "sharp" if float(w.values[0]) < sharp_flat_ridge(spec) else "flat"


# Calibrated settings for the basin-selection experiment: starting inside the
# sharp well, plain gradient descent (constant learning rate) stays there
# while the perturbed-gradient step at this radius escapes to the flat well.
# The radius sits between the measured escape threshold (~0.75) and the
# flat-well containment bound (the 1.26 bottom-to-ridge distance).
SHARP_FLAT_CALIBRATION = {
    "width_sharp": 0.08,
    "width_flat": 0.5,
    "depth_gap": 0.3,
    "separation": 2.0,
    "rho": 0.9,
    "eta0": 0.004,
    "lr_schedule": "constant",
    "iterations": 800,
    "init_halfwidth": 0.25,
}


# ---------------------------------------------------------------------------
# MLP internals

def _target_index(batch, input_dim, n_classes):
    """(flat index of each row's target logit, one-hot target mask) of ``batch``.

    The index is row * n_classes + target; the mask is an (rows, n_classes)
    float64 array of 0.0 with 1.0 at each target. Checks the batch on every
    call and its targets once (see the module docstring); targets assigned
    later as a writable array are checked and indexed on every call.
    """
    if batch is None:
        raise ConfigurationError("mlp_classifier objective requires a batch")
    inputs, targets = batch.inputs, batch.targets
    if inputs.shape[1] != input_dim:
        raise ConfigurationError(
            f"batch has {inputs.shape[1]} features, mlp expects {input_dim}"
        )
    if inputs.shape[0] != targets.shape[0]:
        raise ConfigurationError("batch inputs and targets disagree on row count")
    kept = batch.target_index
    if kept is not None and kept[0] is targets and kept[1] == n_classes:
        return kept[2], kept[3]
    index, onehot = _index_targets(targets, n_classes, targets.shape[0])
    if not targets.flags.writeable:
        batch.target_index = (targets, n_classes, index, onehot)
    return index, onehot


# weight buffers whose per-layer views an MLP plan keeps; a run evaluates at two (w and w + e)
KEPT_WEIGHTS = 4


class _RowBuffers:
    """Every intermediate of one MLP evaluation on ``rows`` rows of one layout."""

    def __init__(self, layout, rows):
        widths = [fan_out for _, fan_out, _, _, _ in layout[:-1]]
        n_classes = layout[-1][1]
        self.hidden = [np.empty((rows, width)) for width in widths]
        self.logits = np.empty((rows, n_classes))
        self.logit_cols = [self.logits[:, j] for j in range(n_classes)]
        self.row_max = np.empty(rows)
        self.row_max_col = self.row_max[:, None]
        self.shifted = np.empty((rows, n_classes))
        self.shifted_cols = [self.shifted[:, j] for j in range(n_classes)]
        self.sum_exp = np.empty(rows)
        self.sum_exp_col = self.sum_exp[:, None]
        self.log_sum = np.empty(rows)
        self.picked = np.empty(rows)
        self.count, self.one = _scalar(rows), _scalar(1.0)  # the mean's divisor; tanh's 1.0
        # backprop: d loss / d (pre-activation) of each hidden layer, and the
        # activation's slope there (tanh: 1 - a * a; relu: a > 0 as 1.0 or 0.0)
        self.d_z = [np.empty((rows, width)) for width in widths]
        self.slope = [np.empty((rows, width)) for width in widths]
        self.hidden_t = [h.T for h in self.hidden]  # operands of the weight gradients
        # np.dot where every product sums over more than one term (module docstring): a
        # product sums over the rows, the input's width or a layer's
        self.product = np.dot if min(rows, layout[0][0], *widths, n_classes) > 1 else np.matmul


def _layers(layout, values, kept):
    """Per layer (W, b, W.T), views of ``values``.

    ``kept`` holds (weight buffer, its layers) for the last ``KEPT_WEIGHTS``
    buffers, most recent last; a buffer that is not among them joins it.
    """
    for buffer, layers in kept:
        if buffer is values:
            return layers
    layers = []
    for fan_in, fan_out, lo, mid, hi in layout:
        w = values[lo:mid].reshape(fan_in, fan_out)
        layers.append((w, values[mid:hi], w.T))
    # slices of a 1-D array reshape to views, so later writes to it show through them
    del kept[:1 - KEPT_WEIGHTS]
    kept.append((values, layers))
    return layers


def _mlp_kernel(spec, grad):
    """The MLP kernel, (loss, gradient or logits), with the spec's layout bound in.

    It keeps its scratch memory: one ``_RowBuffers`` per row count, the
    views of the weight buffers it saw last (``_layers``) and per layer the
    weight and bias views of ``grad``, the plan's buffer that it writes the
    gradient into.
    """
    layout = _mlp_layout(spec.layer_sizes)
    tanh, input_dim, n_classes = spec.activation == "tanh", spec.input_dim, layout[-1][1]
    row_buffers, kept = {}, []
    grads = [(grad[lo:mid].reshape(fan_in, fan_out), grad[mid:hi])
             for fan_in, fan_out, lo, mid, hi in layout]

    def kernel(values, batch, with_grad):
        index, onehot = _target_index(batch, input_dim, n_classes)
        layers = _layers(layout, values, kept)
        inputs = batch.inputs
        n = inputs.shape[0]
        r = row_buffers.get(n)
        if r is None:
            r = row_buffers[n] = _RowBuffers(layout, n)
        # np.dot or np.matmul (module docstring): inputs and weights are views of
        # the caller's arrays, every other operand is a buffer of the plan's
        dot = r.product if inputs.flags.forc and values.flags.forc else np.matmul
        a = inputs
        for (w, bias, _), hidden in zip(layers, r.hidden):
            dot(a, w, out=hidden)
            hidden += bias
            if tanh:
                np.tanh(hidden, out=hidden)
            else:
                np.maximum(hidden, 0.0, out=hidden)
            a = hidden
        w, bias, _ = layers[-1]
        logits = dot(a, w, out=r.logits)
        logits += bias

        # max is exact, so a column-by-column maximum equals np.maximum.reduce
        cols, row_max = r.logit_cols, r.row_max
        if len(cols) == 1:
            np.copyto(row_max, cols[0])
        else:
            np.maximum(cols[0], cols[1], out=row_max)
        for col in cols[2:]:
            np.maximum(row_max, col, out=row_max)
        shifted = np.subtract(logits, r.row_max_col, out=r.shifted)
        # only the target column of the log-softmax enters the loss; the index is
        # in range (checked targets, one per row), so "clip" never moves it
        picked = shifted.take(index, out=r.picked, mode="clip")
        exp = np.exp(shifted, out=shifted)
        sum_exp = r.sum_exp
        if len(cols) == 2:
            # over two columns np.add.reduce is this one add
            np.add(r.shifted_cols[0], r.shifted_cols[1], out=sum_exp)
        else:
            np.add.reduce(exp, axis=1, out=sum_exp)
        picked -= np.log(sum_exp, out=r.log_sum)
        loss = -(float(np.add.reduce(picked)) / n)
        if not with_grad:
            return loss, logits

        d_z = exp  # turned into d loss / d logits in place
        d_z /= r.sum_exp_col
        d_z -= onehot  # x - 0.0 keeps the bits of x: only the target logits change
        d_z /= r.count

        # each layer's gradient is written straight into its views of the vector
        for layer in range(len(layout) - 1, -1, -1):
            w_grad, b_grad = grads[layer]
            np.add.reduce(d_z, axis=0, out=b_grad)
            dot(r.hidden_t[layer - 1] if layer else inputs.T, d_z, out=w_grad)
            if layer == 0:
                break
            below = dot(d_z, layers[layer][2], out=r.d_z[layer - 1])
            a, slope = r.hidden[layer - 1], r.slope[layer - 1]
            if tanh:
                np.subtract(r.one, np.multiply(a, a, out=slope), out=slope)
            else:
                # the bool a > 0 cast to float64, as multiplying by the bool array casts it
                np.greater(a, 0.0, out=slope)
            below *= slope
            d_z = below
        return loss, grad

    return kernel


def mlp_accuracy(spec: ObjectiveSpec, w: ParamVector, inputs, targets) -> float:
    """Share of rows whose largest logit is the target's: ``eval_heldout``'s accuracy."""
    targets = np.asarray(targets)
    return eval_heldout(spec, w.values, Batch(inputs, targets, np.arange(targets.shape[0])))[1]
