"""Differentiable objectives: analytic landscapes and a small MLP classifier.

Every objective exposes the same contract: ``eval_loss`` and ``eval_grad``
are pure functions of (spec, parameter vector, batch) and always include the
``weight_decay * ||w||^2`` regularization term in both the loss and the
gradient. Analytic landscapes ignore the batch (pass ``None``).

The MLP's order of floating-point operations is part of the run-directory
contract: every loss, norm and weight a run writes descends from it, and runs
must stay bit-reproducible across versions of this module. The kernel may be
made cheaper (fewer numpy calls, in-place updates, unused products dropped)
only while it performs the same operations, in the same order, on the same
operands. A property test pins ``eval_grad``, ``eval_loss`` and
``mlp_predict`` byte for byte to an earlier kernel kept in ``tests/helpers.py``.

What depends only on the targets is done once: the dtype and range checks
and the flat index (row * classes + target) through which the loss picks
each target logit and the gradient subtracts 1. The training loop does it
once per epoch: ``prime_epoch`` checks the epoch's gathered targets as one
array and keeps each batch's slice of the index on the batch. Any other
batch is checked and indexed on its first MLP evaluation. The index is kept
with its targets array and class count, and only for a read-only array
(``Batch`` freezes its targets), so a later write to the targets cannot
leave it stale and new targets are a new array that misses it. Every call
still checks the batch is there, its input width, the objective kind and
the parameter count, and the loss and gradient for finiteness. A call looks
the layer layout and the activation up once. The gradient is written layer
by layer into one preallocated vector, and weight decay is added to it in
place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Batch
from .errors import ConfigurationError, NumericError
from .params import ParamVector, all_finite

OBJECTIVE_KINDS = ("quadratic", "rosenbrock", "sharp_flat", "mlp_classifier")
ACTIVATIONS = ("tanh", "relu")


@dataclass
class ObjectiveSpec:
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

    @property
    def param_count(self) -> int:
        if self.kind == "quadratic":
            return self.a.shape[0]
        if self.kind == "rosenbrock":
            return self.dim
        if self.kind == "sharp_flat":
            return 2
        return _mlp_layout(tuple(self.layer_sizes))[-1][-1]

    @property
    def input_dim(self) -> int | None:
        return self.layer_sizes[0] if self.kind == "mlp_classifier" else None


def make_quadratic(a, b=None, weight_decay: float = 0.0) -> ObjectiveSpec:
    """L(w) = 0.5 w'Aw - b'w + weight_decay ||w||^2 with symmetric A."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("quadratic matrix must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ConfigurationError("quadratic matrix must be symmetric")
    if b is None:
        b = np.zeros(a.shape[0])
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.shape[0],):
        raise ConfigurationError("quadratic offset b must match the matrix dimension")
    _check_weight_decay(weight_decay)
    return ObjectiveSpec(kind="quadratic", a=a, b=b, weight_decay=weight_decay)


def make_rosenbrock(dim: int = 2, weight_decay: float = 0.0) -> ObjectiveSpec:
    if dim < 2:
        raise ConfigurationError("rosenbrock needs dim >= 2")
    _check_weight_decay(weight_decay)
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
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ConfigurationError("mlp needs at least input and output layers")
    if any(s < 1 for s in sizes):
        raise ConfigurationError("all layer widths must be >= 1")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}")
    _check_weight_decay(weight_decay)
    return ObjectiveSpec(
        kind="mlp_classifier", layer_sizes=sizes, activation=activation,
        weight_decay=weight_decay,
    )


def _check_weight_decay(wd):
    if wd < 0.0:
        raise ConfigurationError("weight_decay must be nonnegative")


# ---------------------------------------------------------------------------
# parameter vectors

def param_segments(spec: ObjectiveSpec):
    """Segment layout for a fresh parameter vector of this objective."""
    if spec.kind != "mlp_classifier":
        return [("w", 0, spec.param_count)]
    segments = []
    for layer, (_, _, lo, mid, hi) in enumerate(_mlp_layout(tuple(spec.layer_sizes))):
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
        return ParamVector(rng.standard_normal(spec.param_count), param_segments(spec))
    values = np.zeros(spec.param_count)
    for fan_in, fan_out, lo, mid, _ in _mlp_layout(tuple(spec.layer_sizes)):
        values[lo:mid] = (rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)).ravel()
    return ParamVector(values, param_segments(spec))


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
    loss, _ = _evaluate(spec, w, batch, with_grad=False)
    return loss


def eval_grad(spec: ObjectiveSpec, w: ParamVector | np.ndarray, batch: Batch | None = None):
    """Returns (loss, gradient); the gradient includes the 2*wd*w term.

    ``w`` is a ParamVector or a 1-D float64 array of finite weights. Overflow
    raises NumericError; numpy warns of it first unless the caller turned its
    floating-point warnings off, as the training loop does. The gradient is
    checked with ``params.all_finite``, one dot product with zeros: it adds
    an "invalid value" warning only for a gradient that is not finite, just
    before that NumericError, and never warns on a finite one.
    """
    return _evaluate(spec, w, batch, with_grad=True)


def eval_heldout(spec: ObjectiveSpec, values: np.ndarray, batch: Batch):
    """(loss, accuracy) of the MLP on ``batch`` from a single forward pass.

    The bits of ``eval_loss`` and ``mlp_accuracy``, which run the pass once each.
    """
    loss, logits = _evaluate(spec, values, batch, with_grad=False)
    return loss, float(np.mean(np.argmax(logits, axis=1) == batch.targets))


def _evaluate(spec, w, batch, with_grad):
    """(loss, gradient); without the gradient, (loss, MLP logits or None)."""
    kind = spec.kind
    if kind == "mlp_classifier":
        # looked up once per call and handed to the kernel
        layout = _mlp_layout(tuple(spec.layer_sizes))
        expected = layout[-1][-1]
    elif kind in OBJECTIVE_KINDS:
        expected = spec.param_count
    else:
        raise ConfigurationError(f"unknown objective kind {kind!r}")
    x = w.values if isinstance(w, ParamVector) else w
    if x.size != expected:
        raise ConfigurationError(
            f"parameter vector has {x.size} values, objective expects {expected}"
        )
    if kind == "quadratic":
        ax = spec.a @ x
        loss = 0.5 * float(x @ ax) - float(spec.b @ x)
        grad = ax - spec.b if with_grad else None
    elif kind == "rosenbrock":
        loss, grad = _rosenbrock(x, with_grad)
    elif kind == "sharp_flat":
        loss, grad = _sharp_flat(spec, x, with_grad)
    else:
        loss, grad = _mlp(spec, layout, x, batch, with_grad)

    wd = spec.weight_decay
    if wd != 0.0:
        # x.dot(x) gives the bits of x @ x on a 1-D float64 array, without matmul's dispatch
        loss = loss + wd * float(x.dot(x))
        if with_grad:
            grad += (2.0 * wd) * x

    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss from {kind} objective")
    if with_grad and not all_finite(grad):
        raise NumericError(f"non-finite gradient from {kind} objective")
    return float(loss), grad


def _rosenbrock(x, with_grad):
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

def _smoothstep(t: float) -> float:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, monotone between."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def _smoothstep_deriv(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    if a == 0.0 or b == 0.0:
        # exp underflow: the true derivatives here are below 1e-300 anyway
        return 0.0
    return a * b * (1.0 / t**2 + 1.0 / (1.0 - t) ** 2) / (a + b) ** 2


def sharp_flat_centers(spec: ObjectiveSpec):
    """((x_sharp, 0), (x_flat, 0)) well-bottom locations."""
    half = spec.separation / 2.0
    return (-half, 0.0), (half, 0.0)


def sharp_flat_designed_losses(spec: ObjectiveSpec):
    """(loss at sharp bottom, loss at flat bottom) with weight_decay = 0."""
    return -spec.depth_gap, 0.0


# y-curvature as a fraction of the x-curvature at each well. Anisotropy keeps
# the perturbed-gradient oscillation from locking onto the y axis: the softer
# y mode contracts while the stiff x mode carries the escape dynamics.
Y_CURVATURE_RATIO = 0.25


def _sharp_flat(spec, x, with_grad):
    sep = spec.separation
    m_s, m_f = -sep / 2.0, sep / 2.0
    h_s = 1.0 / spec.width_sharp**2
    h_f = 1.0 / spec.width_flat**2
    px, py = float(x[0]), float(x[1])

    u = (m_f - px) / sep  # 0 at the flat bottom, 1 at the sharp bottom
    sig = _smoothstep(u)
    h = h_f + (h_s - h_f) * sig
    qa, qb = px - m_s, px - m_f
    q = qa * qa * qb * qb
    scale = 1.0 / (2.0 * sep * sep)
    hy = Y_CURVATURE_RATIO * h
    loss = q * h * scale - spec.depth_gap * sig + 0.5 * hy * py * py
    if not with_grad:
        return loss, None

    dsig = _smoothstep_deriv(u) * (-1.0 / sep)
    dh = (h_s - h_f) * dsig
    dq = 2.0 * qa * qb * qb + 2.0 * qa * qa * qb
    gx = (dq * h + q * dh) * scale - spec.depth_gap * dsig \
        + 0.5 * Y_CURVATURE_RATIO * dh * py * py
    gy = hy * py
    return loss, np.array([gx, gy])


_RIDGE_CACHE: dict[tuple, float] = {}


def sharp_flat_ridge(spec: ObjectiveSpec) -> float:
    """x coordinate of the loss maximum between the two wells (on y = 0).

    Located on a dense grid; it is the watershed separating the two basins
    under gradient flow, used to classify which basin a run ended in.
    """
    key = (spec.width_sharp, spec.width_flat, spec.depth_gap, spec.separation)
    if key not in _RIDGE_CACHE:
        m_s, m_f = sharp_flat_centers(spec)
        xs = np.linspace(m_s[0], m_f[0], 20001)
        # _sharp_flat reads the point as two floats, so a tuple does for an array
        vals = [_sharp_flat(spec, (vx, 0.0), False)[0] for vx in xs.tolist()]
        _RIDGE_CACHE[key] = float(xs[int(np.argmax(vals))])
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

def _checked_targets(targets, n_classes):
    """``targets`` as int64, once they pass the dtype and range checks."""
    if targets.dtype.kind not in "iu":
        raise ConfigurationError(f"batch targets must be integers, got dtype {targets.dtype}")
    as_int = targets.astype(np.int64, copy=False)
    # one unsigned maximum: a negative target reads as at least 2**63
    if np.maximum.reduce(as_int.view(np.uint64)) >= n_classes:
        raise ConfigurationError("batch targets out of range for the mlp output layer")
    return as_int


def _target_index(spec, batch):
    """Flat index (row * n_classes + target) of each row's target logit.

    Checks the batch on every call and its targets once (see the module
    docstring); targets assigned later as a writable array are checked and
    indexed on every call.
    """
    if batch is None:
        raise ConfigurationError("mlp_classifier objective requires a batch")
    if batch.inputs.shape[1] != spec.input_dim:
        raise ConfigurationError(
            f"batch has {batch.inputs.shape[1]} features, mlp expects {spec.input_dim}"
        )
    n_classes = spec.layer_sizes[-1]
    targets, kept = batch.targets, batch.target_index
    if kept is not None and kept[0] is targets and kept[1] == n_classes:
        return kept[2]
    as_int = _checked_targets(targets, n_classes)
    index = np.arange(0, as_int.size * n_classes, n_classes) + as_int
    if not targets.flags.writeable:
        batch.target_index = (targets, n_classes, index)
    return index


def prime_epoch(spec: ObjectiveSpec, batches) -> None:
    """Check one epoch's targets once and keep each batch's index on it.

    ``batches`` are an epoch's, in order, as ``data.make_batches`` cuts them.
    Their targets are checked as one array, with ``_target_index``'s checks
    and messages; each batch with read-only targets then keeps the index
    that ``_target_index`` would have kept for it, keyed the same way.
    """
    n_classes = spec.layer_sizes[-1]
    as_int = _checked_targets(np.concatenate([batch.targets for batch in batches]), n_classes)
    sizes = [batch.size for batch in batches]
    stops = np.cumsum(sizes)
    # each row's place in its own batch; a batch's index is then a slice view
    rows = np.arange(as_int.size) - np.repeat(stops - sizes, sizes)
    index = rows * n_classes + as_int
    for batch, stop, size in zip(batches, stops.tolist(), sizes):
        if not batch.targets.flags.writeable:
            batch.target_index = (batch.targets, n_classes, index[stop - size:stop])


def _mlp_forward(layout, tanh, values, inputs):
    """(per layer (W, b) as views of ``values``, activations, logits)."""
    layers = [(values[lo:mid].reshape(fan_in, fan_out), values[mid:hi])
              for fan_in, fan_out, lo, mid, hi in layout]
    a = inputs
    activations = [a]
    for w, bias in layers[:-1]:
        a = a @ w
        a += bias
        if tanh:
            np.tanh(a, out=a)
        else:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    w, bias = layers[-1]
    logits = a @ w
    logits += bias
    return layers, activations, logits


def _mlp(spec, layout, values, batch, with_grad):
    index = _target_index(spec, batch)
    n = batch.size
    tanh = spec.activation == "tanh"
    layers, activations, logits = _mlp_forward(layout, tanh, values, batch.inputs)

    # max is exact, so a column-by-column maximum equals np.maximum.reduce
    row_max = logits[:, 0]
    for j in range(1, logits.shape[1]):
        row_max = np.maximum(row_max, logits[:, j])
    shifted = logits - row_max[:, None]
    # only the target column of the log-softmax enters the loss
    picked = shifted.take(index)
    exp = np.exp(shifted, out=shifted)
    # over two columns np.add.reduce is this one add
    sum_exp = exp[:, 0] + exp[:, 1] if exp.shape[1] == 2 else np.add.reduce(exp, axis=1)
    picked -= np.log(sum_exp)
    loss = -(float(np.add.reduce(picked)) / n)
    if not with_grad:
        return loss, logits

    d_z = exp  # turned into d loss / d logits in place
    d_z /= sum_exp[:, None]
    d_z.reshape(-1)[index] -= 1.0
    d_z /= n

    # each layer's gradient is written straight into its slice of the vector
    grad = np.empty(values.size)
    for layer in range(len(layout) - 1, -1, -1):
        fan_in, fan_out, lo, mid, hi = layout[layer]
        np.add.reduce(d_z, axis=0, out=grad[mid:hi])
        np.matmul(activations[layer].T, d_z, out=grad[lo:mid].reshape(fan_in, fan_out))
        if layer == 0:
            break
        a_here = activations[layer]
        d_z = d_z @ layers[layer][0].T
        d_z *= (1.0 - a_here * a_here) if tanh else (a_here > 0.0)
    return loss, grad


def mlp_predict(spec: ObjectiveSpec, w: ParamVector, inputs: np.ndarray) -> np.ndarray:
    """Class predictions (argmax of the logits)."""
    _, _, logits = _mlp_forward(_mlp_layout(tuple(spec.layer_sizes)), spec.activation == "tanh",
                                w.values, np.asarray(inputs, dtype=np.float64))
    return np.argmax(logits, axis=1)


def mlp_accuracy(spec: ObjectiveSpec, w: ParamVector, inputs, targets) -> float:
    pred = mlp_predict(spec, w, inputs)
    return float(np.mean(pred == np.asarray(targets)))


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(spec: ObjectiveSpec, w: ParamVector, batch: Batch | None, h: float) -> np.ndarray:
    """Central-difference gradient (L(w + h e_i) - L(w - h e_i)) / 2h."""
    if h <= 0.0:
        raise ConfigurationError("finite-difference step h must be positive")
    base = w.values
    grad = np.empty(base.size)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + h
        up = eval_loss(spec, w.with_values(bumped), batch)
        bumped[i] = base[i] - h
        down = eval_loss(spec, w.with_values(bumped), batch)
        grad[i] = (up - down) / (2.0 * h)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite value while probing the loss")
    return grad
