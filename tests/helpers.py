"""Independent oracles used by the tests.

The scalar and replay oracles are deliberately written with plain Python
loops and the textbook formulas, and the Jacobi eigensolver checks the
library's LAPACK spectrum, so the implementations under test are checked
against a separate code path rather than against themselves. The
last sections keep earlier versions of optimised code (the MLP kernel,
per-batch gathering, the ``csv.writer`` codec, the sharp/flat ridge scan) as
references that the current code must match byte for byte.
"""

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from samlab.data import Batch
from samlab.errors import ConfigurationError, NumericError


def scalar_mlp_loss(layer_sizes, activation, weight_decay, values, inputs, targets):
    """Straight-line scalar reimplementation of the MLP loss (mean reduction)."""
    values = [float(v) for v in values]
    layers = []
    offset = 0
    for layer in range(len(layer_sizes) - 1):
        fan_in, fan_out = layer_sizes[layer], layer_sizes[layer + 1]
        w = [[values[offset + i * fan_out + j] for j in range(fan_out)] for i in range(fan_in)]
        offset += fan_in * fan_out
        b = [values[offset + j] for j in range(fan_out)]
        offset += fan_out
        layers.append((w, b))
    assert offset == len(values)

    total = 0.0
    for row, target in zip(inputs, targets):
        act = [float(v) for v in row]
        for idx, (w, b) in enumerate(layers):
            out = []
            for j in range(len(b)):
                z = b[j]
                for i in range(len(act)):
                    z += act[i] * w[i][j]
                out.append(z)
            if idx < len(layers) - 1:
                if activation == "tanh":
                    act = [math.tanh(z) for z in out]
                else:
                    act = [z if z > 0.0 else 0.0 for z in out]
            else:
                act = out
        m = max(act)
        lse = m + math.log(sum(math.exp(z - m) for z in act))
        total += lse - act[int(target)]
    loss = total / len(inputs)
    reg = weight_decay * sum(v * v for v in values)
    return loss + reg


def whole_dataset_batch(ds):
    return Batch(ds.inputs, ds.targets, np.arange(ds.n))


# ---------------------------------------------------------------------------
# brute-force sampler replay (lists and loops only, no package statistics code)

def _oracle_pvar(xs):
    n = len(xs)
    total = 0.0
    for x in xs:
        total += x
    mean = total / n
    acc = 0.0
    for x in xs:
        acc += (x - mean) * (x - mean)
    return acc / n


def _oracle_sliced_variance(values, m):
    ordered = sorted(values)
    n = len(ordered)
    if n < m:
        return _oracle_pvar(ordered)
    base, extra = divmod(n, m)
    total = 0.0
    lo = 0
    for j in range(m):
        hi = lo + base + (1 if j < extra else 0)
        total += _oracle_pvar(ordered[lo:hi])
        lo = hi
    return total / m


def _oracle_change_rate(history, eps):
    if len(history) < 2:
        return 0.0
    total = 0.0
    for i in range(1, len(history)):
        prev = history[i - 1]
        if abs(prev) >= eps:
            total += (history[i] - prev) / prev
    return total / (len(history) - 1)


def replay_sampler(events, n_window, m_slices, alpha, s1, p_max, eps):
    """Recompute the controller state from the full event history.

    events: list of ("record", l2_psf, l2_sgd) and ("update",) tuples.
    Returns a dict of the final state fields for exact comparison.
    """
    records = []  # every recorded (psf, sgd) pair, in order
    v_all = []
    r_all = []
    s = float(s1)
    p = s / n_window
    last_c_var = last_c_norm = None
    window_iter = 0
    window_samples = 0
    for event in events:
        if event[0] == "record":
            _, psf, sgd = event
            records.append((psf, sgd))
            window = [pair[0] for pair in records[-n_window:]]
            v_all.append(_oracle_sliced_variance(window, m_slices))
            r_all.append(psf / max(sgd, eps))
            window_samples += 1
        else:
            c_var = _oracle_change_rate(v_all[-n_window:], eps)
            c_norm = _oracle_change_rate(r_all[-n_window:], eps)
            s = s * (1.0 + alpha * c_var + alpha * c_norm)
            if s < 1.0:
                s = 1.0
            cap = p_max * n_window
            if s > cap:
                s = cap
            p = s / n_window
            if p > p_max:
                p = p_max
            last_c_var, last_c_norm = c_var, c_norm
            window_iter = 0
            window_samples = 0
    return {
        "gnorm_buffer": [pair[0] for pair in records[-n_window:]],
        "v_history": v_all[-n_window:],
        "r_history": r_all[-n_window:],
        "s": s,
        "p": p,
        "window_iter": window_iter,
        "window_samples": window_samples,
        "last_c_var": last_c_var,
        "last_c_norm": last_c_norm,
    }


def per_call_should_sample(state, config, i):
    """The sampling decision with one ``random()`` per Bernoulli draw and no block.

    The reference that ``should_sample``'s block draws must match, in the
    decisions and in the generator's state.
    """
    if i <= config.i_start:
        return True
    state.window_iter += 1
    if config.force == "always":
        return True
    if config.force == "never":
        return False
    if state.window_samples >= math.floor(config.p_max * config.n_window):
        return False
    return float(state.rng_stream.random()) < state.p


def float_bits(x):
    """The IEEE-754 bits of a float, so that equal NaNs compare equal and 0.0 != -0.0."""
    return struct.pack("<d", x)


def sampler_state_bits(state):
    """Every field of a SamplerState but its generator, with floats as their bits."""
    def bits(value):
        if isinstance(value, float):
            return float_bits(value)
        if isinstance(value, list):
            return [bits(v) for v in value]
        return value
    return {k: bits(v) for k, v in vars(state).items() if k != "rng_stream"}


# ---------------------------------------------------------------------------
# cyclic Jacobi eigensolver: the independent spectrum oracle for the
# curvature-bound tests (the library itself uses np.linalg.eigh)

MAX_EIGEN_DIM = 64
OFFDIAG_TOL = 1e-12


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return u @ np.diag(self.eigenvalues) @ u.T


def symmetric_eigen(a, max_sweeps: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps rotate away each off-diagonal entry in turn until all of them are
    below 1e-12 in magnitude. Rotations use the smaller-angle root of the
    annihilation equation, which keeps the iteration stable and the
    accumulated eigenvector matrix orthonormal to machine precision.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("matrix must be square")
    n = a.shape[0]
    if n > MAX_EIGEN_DIM:
        raise ConfigurationError(f"matrix dimension {n} exceeds the {MAX_EIGEN_DIM} limit")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12:
        raise ConfigurationError("matrix must be symmetric")

    work = a.copy()
    vecs = np.eye(n)
    for _ in range(max_sweeps):
        off = _max_offdiag(work)
        if off < OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if apq == 0.0:
                    continue
                tau = (work[q, q] - work[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                _rotate(work, vecs, p, q, c, s)
    else:
        raise NumericError("Jacobi sweeps did not converge within the budget")

    order = np.argsort(work.diagonal())[::-1]
    return EigenDecomposition(
        eigenvalues=work.diagonal()[order].copy(),
        eigenvectors=vecs[:, order].copy(),
    )


def _max_offdiag(a):
    if a.shape[0] == 1:
        return 0.0
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.abs(a[mask]).max())


def _rotate(a, v, p, q, c, s):
    row_p, row_q = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    col_p, col_q = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    a[p, q] = a[q, p] = 0.0
    vp, vq = v[:, p].copy(), v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


# ---------------------------------------------------------------------------
# the MLP kernel as it stood before its numpy calls were trimmed, verbatim:
# the order of operations it fixes is part of the run-directory contract

def _unpack_mlp(spec, values: np.ndarray):
    layers = []
    offset = 0
    sizes = spec.layer_sizes
    for layer in range(len(sizes) - 1):
        fan_in, fan_out = sizes[layer], sizes[layer + 1]
        w = values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _check_batch(spec, batch):
    if batch is None:
        raise ConfigurationError("mlp_classifier objective requires a batch")
    if batch.inputs.shape[1] != spec.input_dim:
        raise ConfigurationError(
            f"batch has {batch.inputs.shape[1]} features, mlp expects {spec.input_dim}"
        )
    n_classes = spec.layer_sizes[-1]
    targets = batch.targets.astype(np.int64)
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ConfigurationError("batch targets out of range for the mlp output layer")
    return targets


def _mlp_forward(spec, values, inputs):
    layers = _unpack_mlp(spec, values)
    act = np.tanh if spec.activation == "tanh" else lambda z: np.maximum(z, 0.0)
    a = inputs
    activations = [a]
    for w, bias in layers[:-1]:
        a = act(a @ w + bias)
        activations.append(a)
    w, bias = layers[-1]
    logits = a @ w + bias
    return layers, activations, logits


def _mlp(spec, values, batch, with_grad):
    targets = _check_batch(spec, batch)
    n = batch.size
    layers, activations, logits = _mlp_forward(spec, values, batch.inputs)

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=1)
    log_probs = shifted - np.log(sum_exp)[:, None]
    loss = float(-log_probs[np.arange(n), targets].mean())
    if not with_grad:
        return loss, None

    probs = exp / sum_exp[:, None]
    d_logits = probs
    d_logits[np.arange(n), targets] -= 1.0
    d_logits /= n

    grads = [None] * len(layers)
    d_a = d_logits
    for layer in range(len(layers) - 1, -1, -1):
        w, _ = layers[layer]
        a_prev = activations[layer]
        if layer == len(layers) - 1:
            d_z = d_a
        else:
            a_here = activations[layer + 1]
            if spec.activation == "tanh":
                d_z = d_a * (1.0 - a_here * a_here)
            else:
                d_z = d_a * (a_here > 0.0)
        grads[layer] = (a_prev.T @ d_z, d_z.sum(axis=0))
        d_a = d_z @ w.T

    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return loss, flat


def oracle_mlp_eval(spec, values, batch, with_grad):
    """(loss, gradient or None) of the MLP objective, weight decay included."""
    with np.errstate(all="ignore"):
        loss, grad = _mlp(spec, values, batch, with_grad)
        wd = spec.weight_decay
        if wd != 0.0:
            loss = loss + wd * float(values @ values)
            if with_grad:
                grad = grad + (2.0 * wd) * values
    return float(loss), grad


def oracle_mlp_predict(spec, values, inputs):
    _, _, logits = _mlp_forward(spec, values, np.asarray(inputs, dtype=np.float64))
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# batching and the CSV codec as they stood before they were vectorised

def oracle_make_batches(ds, batch_size, seed, epoch):
    """One fancy-index gather per batch."""
    perm = np.random.default_rng([seed, epoch]).permutation(ds.n)
    batches = []
    for start in range(0, ds.n, batch_size):
        idx = perm[start : start + batch_size]
        batches.append(Batch(ds.inputs[idx], ds.targets[idx], idx))
    return batches


_ORACLE_FORMAT = {"bool": lambda v: "1" if v else "0", "int": lambda v: str(int(v)),
                  "float": lambda v: repr(float(v))}
_ORACLE_PARSE = {"bool": "1".__eq__, "int": int, "float": float}


def oracle_write_rows(path, header, rows, column_type):
    """``csv.writer``, one row at a time; ``column_type(name)`` gives bool/int/float."""
    columns = [(name, _ORACLE_FORMAT[column_type(name)]) for name in header]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row[name] is None else fmt(row[name])
                             for name, fmt in columns])


def oracle_read_rows(path, header, column_type):
    """``csv.reader``, one dict per row."""
    parsers = [_ORACLE_PARSE[column_type(name)] for name in header]
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        assert next(reader) == header
        return [{name: None if cell == "" else parse(cell)
                 for name, parse, cell in zip(header, parsers, row)}
                for row in reader]


# ---------------------------------------------------------------------------
# the sharp/flat ridge scan as it stood before it scanned floats

def oracle_sharp_flat_ridge(spec):
    """The ridge's x coordinate from one 2-element array per grid point, uncached."""
    from samlab.objectives import _sharp_flat, sharp_flat_centers

    m_s, m_f = sharp_flat_centers(spec)
    xs = np.linspace(m_s[0], m_f[0], 20001)
    vals = [_sharp_flat(spec, np.array([vx, 0.0]), False)[0] for vx in xs]
    return float(xs[int(np.argmax(vals))])
