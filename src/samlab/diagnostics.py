"""Numerical verification of the optimizer's structural claims.

Covers two checks:

* the bound ||correction|| <= rho * sum_i eigenvalue_i * |cos(angle_i)|
  relating the sharpness correction to the Hessian spectrum (holds when the
  Hessian is positive definite),
* the first-order identity correction ~ rho * H g / ||g||, exact on
  quadratics and O(rho^2) elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .metrics import _read_columns, _write_rows
from .objectives import Workspace, eval_grad
from .optim import perturbation
from .params import require_finite

BOUND_SLACK_TOL = 1e-12
HVP_FD_STEP = 1e-4


@dataclass
class BoundCheckResult:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    cos_angles: np.ndarray  # logged only; no claim is made about their trend


def check_psf_bound(a, g, rho: float) -> BoundCheckResult:
    """Check the curvature bound on the correction norm for Hessian ``a``.

    For a quadratic loss with positive definite Hessian A the correction norm
    is exactly rho * ||A g|| / ||g||; projecting g onto the eigenbasis bounds
    it by rho * sum_i eigenvalue_i * |cos(angle between eigenvector_i and g)|.
    ``cos_angles`` follows the eigenvalues in descending order.
    """
    a = np.asarray(a, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("matrix must be square")
    if g.shape != (a.shape[0],):
        raise ConfigurationError(
            f"gradient must be a vector of length {a.shape[0]}, got shape {g.shape}")
    if not (np.isfinite(a).all() and np.isfinite(g).all()):
        raise ConfigurationError("bound check requires a finite matrix and gradient")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12:
        raise ConfigurationError("matrix must be symmetric")
    if not (rho > 0.0 and np.isfinite(rho)):
        raise ConfigurationError(f"rho must be positive and finite, got {rho}")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    eigenvalues, eigenvectors = eigenvalues[::-1], eigenvectors[:, ::-1]
    if eigenvalues.size == 0 or eigenvalues.min() <= 0.0:
        raise ConfigurationError("bound check requires a positive definite matrix")
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        raise ConfigurationError("bound check requires a nonzero gradient")
    lhs = rho * float(np.linalg.norm(a @ g)) / g_norm
    cosines = (eigenvectors.T @ g) / g_norm
    rhs = rho * float(np.sum(eigenvalues * np.abs(cosines)))
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
    """Run the bound check on random PD matrices; returns the results list.

    Each case draws its dimension uniformly from ``dims`` = (low, high),
    both inclusive; ``check_psf_bound`` rejects a ``rho`` that is not positive.
    """
    low, high = dims
    if cases < 1:
        raise ConfigurationError(f"cases must be at least 1, got {cases}")
    if not 1 <= low <= high:
        raise ConfigurationError(f"dimensions must satisfy 1 <= min <= max, got {low}, {high}")
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(cases):
        dim = int(rng.integers(low, high + 1))
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
    gradient both sides vanish by contract and the residual is zero. The
    correction is the one SAM step computes at w: the gradient at
    w + perturbation(g, rho), minus g.
    """
    ws = Workspace()  # one set of buffers for every evaluation here
    _, g = eval_grad(spec, w, batch, ws)
    g_norm = float(np.linalg.norm(g))
    if g_norm < 1e-12:
        return 0.0
    direction = g / g_norm
    if spec.kind == "quadratic":
        hv = spec.a @ direction + (2.0 * spec.weight_decay) * direction
    else:
        h = HVP_FD_STEP
        _, g_up = eval_grad(spec, w.with_values(w.values + h * direction), batch, ws)
        _, g_down = eval_grad(spec, w.with_values(w.values - h * direction), batch, ws)
        hv = (g_up - g_down) / (2.0 * h)
    w_pert = w.values + perturbation(g, rho, g_norm)
    require_finite(w_pert)
    _, g_sam = eval_grad(spec, w_pert, batch, ws)
    return float(np.linalg.norm((g_sam - g) - rho * hv))


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
    return [dict(zip(NORM_TRACE_FIELDS, values))
            for values in zip(*_read_columns(path, NORM_TRACE_FIELDS))]
