"""Independent oracles used by the tests.

The scalar and replay oracles are deliberately written with plain Python
loops and the textbook formulas, and the Jacobi eigensolver checks the
library's LAPACK spectrum, so the implementations under test are checked
against a separate code path rather than against themselves. The
middle sections keep earlier versions of optimised code (the MLP kernel,
per-batch gathering, the ``csv.writer`` codec, the sharp/flat landscape and
its ridge scan) as references that the current code must match byte for byte.
Then comes what only tests use: ``sam_gradient`` (both evaluations of one
SAM step, as a ``GradientTriple``), the reference route that the training
loop's rows and ``decomposition_residual`` must match bit for bit;
``convergence_metric``, the logged ||g + gamma * correction||^2;
``grad_eval_ratio`` of two run summaries; and ``sharp_flat_designed_losses``.
Four checks follow that the package once exported and only the tests call:
``fd_gradient`` (central differences of the loss), ``decomposition_residual``
(the correction against rho * H g / ||g||), ``sliced_variance`` (the
sampler's block routine on one window) and ``learning_rate`` (one value of
the run's schedule). ``hessian_oracle`` gives the full Hessian of an
objective at a point, and its spectrum, from central differences of the
gradient: the sharpness of a run's final weights.
"""

import csv
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from samlab.data import Batch
from samlab.errors import ConfigurationError, NumericError
from samlab.objectives import eval_grad, eval_loss, param_segments
from samlab.optim import learning_rates, perturbation
from samlab.params import default_subset, l2_norm, require_finite, subset_norm
from samlab.sampler import _block_sliced_variance


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
            window_samples = 0
    return {
        "gnorm_buffer": [pair[0] for pair in records[-n_window:]],
        "v_history": v_all[-n_window:],
        "r_history": r_all[-n_window:],
        "s": s,
        "p": p,
        "window_samples": window_samples,
        "last_c_var": last_c_var,
        "last_c_norm": last_c_norm,
    }


def replay_budget(records, config, ratios=None):
    """Each row's logged (p, s, c_var, c_norm), replayed from the sampled rows' logged v and r.

    A row logs the p and s its decision saw and the change rates of the
    last rate update, its own if it ends a window. ``ratios``, if given,
    stands for the sampled rows' r, in row order (a shuffled copy, say); the
    sampled rows stay where the run put them. Returns (the rows' values,
    the budget s after the last update).
    """
    n_window, alpha, eps = config.n_window, config.alpha, config.eps
    ratios = iter([row.r for row in records if row.sampled] if ratios is None else ratios)
    s = float(config.s1)
    p = min(s / n_window, config.p_max)
    c_var = c_norm = None
    v_all, r_all, replayed = [], [], []
    boundary = config.i_start + n_window  # the first window end
    for row in records:
        logged_p, logged_s = p, s
        if row.sampled:
            v_all.append(row.v)
            r_all.append(next(ratios))
        if row.iteration == boundary:
            c_var = _oracle_change_rate(v_all[-n_window:], eps)
            c_norm = _oracle_change_rate(r_all[-n_window:], eps)
            s = s * (1.0 + alpha * c_var + alpha * c_norm)
            s = min(max(s, 1.0), config.p_max * n_window)
            p = min(s / n_window, config.p_max)
            boundary += n_window
        replayed.append((logged_p, logged_s, c_var, c_norm))
    return replayed, s


def per_call_should_sample(state, config, i):
    """The sampling decision with one ``random()`` per Bernoulli draw and no block.

    The reference that ``should_sample``'s block draws must match, in the
    decisions and in the generator's state.
    """
    if i <= config.i_start:
        return True
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


def record_dict(record):
    """A metrics record's fields as a dict, keyed in the file's column order (``FIELD_ORDER``)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


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
# the sharp/flat landscape as it stood before its constants were worked out per run

def _oracle_smoothstep(t):
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def _oracle_smoothstep_deriv(t):
    if t <= 0.0 or t >= 1.0:
        return 0.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b * (1.0 / t**2 + 1.0 / (1.0 - t) ** 2) / (a + b) ** 2


def oracle_sharp_flat(spec, x, with_grad):
    """(loss, gradient or None) of the landscape at ``x``, weight decay left out."""
    from samlab.objectives import Y_CURVATURE_RATIO

    sep = spec.separation
    m_s, m_f = -sep / 2.0, sep / 2.0
    h_s = 1.0 / spec.width_sharp**2
    h_f = 1.0 / spec.width_flat**2
    px, py = float(x[0]), float(x[1])

    u = (m_f - px) / sep
    sig = _oracle_smoothstep(u)
    h = h_f + (h_s - h_f) * sig
    qa, qb = px - m_s, px - m_f
    q = qa * qa * qb * qb
    scale = 1.0 / (2.0 * sep * sep)
    hy = Y_CURVATURE_RATIO * h
    loss = q * h * scale - spec.depth_gap * sig + 0.5 * hy * py * py
    if not with_grad:
        return loss, None

    dsig = _oracle_smoothstep_deriv(u) * (-1.0 / sep)
    dh = (h_s - h_f) * dsig
    dq = 2.0 * qa * qb * qb + 2.0 * qa * qa * qb
    gx = (dq * h + q * dh) * scale - spec.depth_gap * dsig \
        + 0.5 * Y_CURVATURE_RATIO * dh * py * py
    gy = hy * py
    return loss, np.array([gx, gy])


def oracle_sharp_flat_ridge(spec):
    """The ridge's x coordinate by the full scalar scan, uncached.

    The scan ``sharp_flat_ridge`` ran before it screened the grid with one
    array pass: the spec's kernel at every one of the 20,001 grid points and
    ``np.argmax`` of the losses, the first largest or the first NaN.
    """
    from samlab.objectives import sharp_flat_centers

    m_s, m_f = sharp_flat_centers(spec)
    xs = np.linspace(m_s[0], m_f[0], 20001)
    kernel = spec.plan.kernel
    # the kernel reads its point from an array: each grid point is a row (x, 0.0)
    vals = [kernel(point, None, False)[0] for point in np.column_stack((xs, np.zeros_like(xs)))]
    return float(xs[int(np.argmax(vals))])


# ---------------------------------------------------------------------------
# what only tests use: the reference SAM step, the convergence quantity,
# the evaluation ratio of two runs and the landscape's designed losses

@dataclass
class GradientTriple:
    g_sgd: np.ndarray
    g_sam: np.ndarray
    psf: np.ndarray
    l2_sgd: float
    l2_psf: float
    l2_sgd_subset: float
    l2_psf_subset: float


def sam_gradient(spec, w, batch, rho, subset_names=None):
    """Both gradient evaluations of one SAM step (cost: exactly two)."""
    segments = param_segments(spec)
    if subset_names is None:
        subset_names = default_subset(segments)
    _, g_sgd = eval_grad(spec, w, batch)
    w_pert = w.values + perturbation(g_sgd, rho)
    require_finite(w_pert)
    _, g_sam = eval_grad(spec, w_pert, batch)
    psf = g_sam - g_sgd
    return GradientTriple(
        g_sgd=g_sgd,
        g_sam=g_sam,
        psf=psf,
        l2_sgd=l2_norm(g_sgd),
        l2_psf=l2_norm(psf),
        l2_sgd_subset=subset_norm(g_sgd, segments, subset_names),
        l2_psf_subset=subset_norm(psf, segments, subset_names),
    )


def convergence_metric(records, gamma):
    """Per-iteration ||g + gamma * correction||^2 and its running mean.

    Computed from the logged norms and inner product; missing correction
    columns (plain SGD rows) count as a zero correction. Tiny negative
    results from cancellation in the expansion are clamped to zero.
    """
    per_iter = np.empty(len(records))
    for idx, rec in enumerate(records):
        l2_psf = rec.l2_psf or 0.0
        dot = rec.dot_sgd_psf or 0.0
        sq = rec.l2_sgd**2 + 2.0 * gamma * dot + gamma**2 * l2_psf**2
        per_iter[idx] = max(sq, 0.0)
    running_mean = np.cumsum(per_iter) / np.arange(1, len(records) + 1)
    return per_iter, running_mean


def grad_eval_ratio(run_a, run_b):
    """Hardware-independent cost ratio of two runs over equal iterations."""
    if run_a.iterations != run_b.iterations:
        raise ConfigurationError("gradient-evaluation ratio needs equal iteration counts")
    return run_a.grad_evals / run_b.grad_evals


def sharp_flat_designed_losses(spec):
    """(loss at sharp bottom, loss at flat bottom) with weight_decay = 0."""
    return -spec.depth_gap, 0.0


# ---------------------------------------------------------------------------
# checks that were library functions: the finite-difference gradient, the
# decomposition residual, one window's sliced variance and one learning rate

def fd_gradient(spec, w, batch, h):
    """Central-difference gradient (L(w + h e_i) - L(w - h e_i)) / 2h."""
    if h <= 0.0:
        raise ConfigurationError("finite-difference step h must be positive")
    base = w.values
    grad = np.empty(base.size)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + h
        up = eval_loss(spec, bumped, batch)
        bumped[i] = base[i] - h
        down = eval_loss(spec, bumped, batch)
        grad[i] = (up - down) / (2.0 * h)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite value while probing the loss")
    return grad


HVP_FD_STEP = 1e-4


def decomposition_residual(spec, w, batch, rho):
    """Distance between the measured correction and rho * H g / ||g||.

    H g/||g|| is analytic for quadratics and a central finite difference of
    the gradient along g/||g|| otherwise. Exact (to roundoff) on quadratics;
    shrinks like rho^2 on smooth non-quadratic objectives. At a degenerate
    gradient both sides vanish by contract and the residual is zero. The
    correction is the one SAM step computes at w: the gradient at
    w + perturbation(g, rho), minus g.
    """
    _, g = eval_grad(spec, w, batch)
    g_norm = float(np.linalg.norm(g))
    if g_norm < 1e-12:
        return 0.0
    direction = g / g_norm
    if spec.kind == "quadratic":
        hv = spec.a @ direction + (2.0 * spec.weight_decay) * direction
    else:
        h = HVP_FD_STEP
        _, g_up = eval_grad(spec, w.values + h * direction, batch)
        _, g_down = eval_grad(spec, w.values - h * direction, batch)
        hv = (g_up - g_down) / (2.0 * h)
    w_pert = w.values + perturbation(g, rho, g_norm)
    require_finite(w_pert)
    _, g_sam = eval_grad(spec, w_pert, batch)
    return float(np.linalg.norm((g_sam - g) - rho * hv))


def sliced_variance(values, m_slices):
    """Mean of per-slice population variances of the ascending-sorted values.

    Sorting first makes the statistic robust to isolated extreme norms: an
    outlier inflates only its own slice. With fewer values than slices the
    population variance of everything is returned instead. This is
    ``settle``'s block routine on one window.
    """
    if len(values) == 0:
        raise ConfigurationError("sliced_variance needs at least one value")
    # with one slice the block's one window is reduced along a contiguous axis,
    # which numpy sums pairwise rather than left to right
    if m_slices < 2:
        raise ConfigurationError("need at least 2 variance slices")
    values = list(map(float, values))
    return _block_sliced_variance(values, len(values) - 1, len(values), m_slices)[0]


def learning_rate(opt, t, total):
    """Learning rate at 1-based iteration t of a run planned for `total`."""
    return next(learning_rates(opt, t, total))


# ---------------------------------------------------------------------------
# Hessian oracle: the sharpness of a point, from gradients alone

HESSIAN_FD_STEP = 1e-4


def hessian_oracle(spec, w, batch=None, h=HESSIAN_FD_STEP):
    """(Hessian, its eigenvalues ascending) of the objective at ``w`` on ``batch``.

    Column i is the central difference (g(w + h e_i) - g(w - h e_i)) / 2h of
    ``eval_grad``, one coordinate at a time: 2n gradient evaluations. The
    matrix is symmetrised, (H + H^T) / 2, before ``np.linalg.eigh``. Exact
    to roundoff on a quadratic, where the gradient is linear in w.
    """
    x = np.array(getattr(w, "values", w), dtype=np.float64)
    hess = np.empty((x.size, x.size))
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + h
        _, g_up = eval_grad(spec, bumped, batch)
        bumped[i] = x[i] - h
        _, g_down = eval_grad(spec, bumped, batch)
        hess[:, i] = (g_up - g_down) / (2.0 * h)
    hess = 0.5 * (hess + hess.T)
    return hess, np.linalg.eigh(hess)[0]
