"""The curvature bound on the sharpness correction, and the norm trace.

The bound is ||correction|| <= rho * sum_i eigenvalue_i * |cos(angle_i)|,
relating the correction to the Hessian spectrum; it holds when the Hessian
is positive definite. The first-order identity correction ~ rho * H g / ||g||
is checked by the tests, with ``decomposition_residual`` in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ConfigurationError, check_number
from .metrics import _read_columns, _write_rows

BOUND_SLACK_TOL = 1e-12


@dataclass
class BoundCheckResult:
    """One curvature-bound check: both sides, whether it held, and the cosines."""

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
    check_number("seed", seed, int, 0)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(cases):
        dim = int(rng.integers(low, high + 1))
        a = random_pd_matrix(rng, dim)
        a = 0.5 * (a + a.T)  # kill the last bits of asymmetry from the products
        g = rng.standard_normal(dim)
        results.append(check_psf_bound(a, g, rho))
    return results


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
    """Write ``rows``, mappings such as ``norm_trace`` returns, as the norm-trace CSV."""
    _write_rows(path, NORM_TRACE_FIELDS, map(itemgetter(*NORM_TRACE_FIELDS), rows))


def read_norm_trace(path) -> list[dict]:
    return [dict(zip(NORM_TRACE_FIELDS, values))
            for values in zip(*_read_columns(path, NORM_TRACE_FIELDS))]
