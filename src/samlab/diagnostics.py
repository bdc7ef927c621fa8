"""Numerical verification of the optimizer's structural claims.

Covers four checks:

* a self-contained Jacobi eigendecomposition used as the oracle for the
  curvature bound below,
* the bound ||correction|| <= rho * sum_i eigenvalue_i * |cos(angle_i)|
  relating the sharpness correction to the Hessian spectrum (holds when the
  Hessian is positive definite),
* the first-order identity correction ~ rho * H g / ||g||, exact on
  quadratics and O(rho^2) elsewhere,
* the logged convergence quantity ||g + gamma * correction||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .metrics import _read_rows, _write_rows
from .objectives import eval_grad
from .optim import sam_gradient

MAX_EIGEN_DIM = 64
OFFDIAG_TOL = 1e-12
BOUND_SLACK_TOL = 1e-12
HVP_FD_STEP = 1e-4


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return u @ np.diag(self.eigenvalues) @ u.T


@dataclass
class BoundCheckResult:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    cos_angles: np.ndarray  # logged only; no claim is made about their trend


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


def check_psf_bound(a, g, rho: float) -> BoundCheckResult:
    """Check the curvature bound on the correction norm for Hessian ``a``.

    For a quadratic loss with positive definite Hessian A the correction norm
    is exactly rho * ||A g|| / ||g||; projecting g onto the eigenbasis bounds
    it by rho * sum_i eigenvalue_i * |cos(angle between eigenvector_i and g)|.
    """
    a = np.asarray(a, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    decomp = symmetric_eigen(a)
    if decomp.eigenvalues.min() <= 0.0:
        raise ConfigurationError("bound check requires a positive definite matrix")
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        raise ConfigurationError("bound check requires a nonzero gradient")
    lhs = rho * float(np.linalg.norm(a @ g)) / g_norm
    cosines = (decomp.eigenvectors.T @ g) / g_norm
    rhs = rho * float(np.sum(decomp.eigenvalues * np.abs(cosines)))
    return BoundCheckResult(
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + BOUND_SLACK_TOL,
        slack=rhs - lhs,
        cos_angles=cosines,
    )


def random_pd_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random positive definite matrix with eigenvalues in (0.1, ~5]."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = 0.1 + 5.0 * rng.random(dim)
    return basis @ np.diag(eigs) @ basis.T


def bound_sweep(cases: int, dims, seed: int, rho: float = 0.1):
    """Run the bound check on random PD matrices; returns the results list."""
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(cases):
        dim = int(rng.integers(dims[0], dims[1] + 1))
        a = random_pd_matrix(rng, dim)
        a = 0.5 * (a + a.T)  # kill the last bits of asymmetry from the products
        g = rng.standard_normal(dim)
        results.append(check_psf_bound(a, g, rho))
    return results


def decomposition_residual(spec, w, batch, rho: float) -> float:
    """Distance between the measured correction and rho * H g / ||g||.

    H g/||g|| is analytic for quadratics and a central finite difference of
    the gradient along g/||g|| otherwise. Exact (to roundoff) on quadratics;
    shrinks like rho^2 on smooth non-quadratic objectives. At a degenerate
    gradient both sides vanish by contract and the residual is zero.
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
        _, g_up = eval_grad(spec, w.with_values(w.values + h * direction), batch)
        _, g_down = eval_grad(spec, w.with_values(w.values - h * direction), batch)
        hv = (g_up - g_down) / (2.0 * h)
    triple = sam_gradient(spec, w, batch, rho)
    return float(np.linalg.norm(triple.psf - rho * hv))


def convergence_metric(records, gamma: float):
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


# ---------------------------------------------------------------------------
# norm trace: the logged l2 series, a column projection of metrics.csv

NORM_TRACE_FIELDS = [
    "iteration", "l2_sgd", "l2_psf", "l2_sgd_subset", "l2_psf_subset", "psf_stale",
]


def norm_trace(records) -> list[dict]:
    """Plot-ready (iteration, l2_sgd, l2_psf) table, full and subset variants.

    Rows keep the trace order; on reuse iterations the correction columns
    carry the last-sampled value and the staleness flag is set.
    """
    if not records:
        raise ConfigurationError("empty trace")
    return [
        {
            "iteration": rec.iteration,
            "l2_sgd": rec.l2_sgd,
            "l2_psf": rec.l2_psf,
            "l2_sgd_subset": rec.l2_sgd_subset,
            "l2_psf_subset": rec.l2_psf_subset,
            "psf_stale": rec.psf_stale,
        }
        for rec in records
    ]


def write_norm_trace(path, rows) -> None:
    _write_rows(path, NORM_TRACE_FIELDS, rows)


def read_norm_trace(path) -> list[dict]:
    return [dict(zip(NORM_TRACE_FIELDS, values)) for values in _read_rows(path, NORM_TRACE_FIELDS)]
