import numpy as np
import pytest

from samlab import objectives
from samlab.data import generate_dataset, train_test_split
from samlab.diagnostics import (bound_sweep, check_psf_bound, norm_trace, random_pd_matrix,
                                read_norm_trace, write_norm_trace)
from samlab.errors import ConfigurationError
from samlab.metrics import MetricsRecord
from samlab.objectives import (eval_grad, init_params, make_mlp_classifier, make_quadratic,
                               make_rosenbrock, make_sharp_flat)
from samlab.optim import OptimizerConfig, run_sam
from samlab.params import ParamVector

from helpers import (HESSIAN_FD_STEP, HVP_FD_STEP, convergence_metric,
                     decomposition_residual, float_bits, hessian_oracle, sam_gradient,
                     symmetric_eigen, whole_dataset_batch)


# ---------------------------------------------------------------------------
# eigendecomposition (the Jacobi oracle in helpers.py)

def test_eigen_diagonal_input():
    decomp = symmetric_eigen(np.diag([2.0, 5.0]))
    assert np.array_equal(decomp.eigenvalues, [5.0, 2.0])
    assert np.allclose(np.abs(decomp.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_eigen_classic_2x2():
    decomp = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(decomp.eigenvalues, [3.0, 1.0], atol=1e-12)
    v0 = decomp.eigenvectors[:, 0]
    v1 = decomp.eigenvectors[:, 1]
    assert np.allclose(np.abs(v0), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(np.abs(v1), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert abs(v0 @ v1) <= 1e-12


def test_eigen_reconstruction_random_8x8():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8))
    a = m + m.T
    decomp = symmetric_eigen(a)
    assert np.max(np.abs(decomp.reconstruct() - a)) <= 1e-9
    gram = decomp.eigenvectors.T @ decomp.eigenvectors
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-10


def test_eigen_matches_library_eigenvalues():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 5, 13):
        m = rng.standard_normal((dim, dim))
        a = m + m.T
        ours = symmetric_eigen(a).eigenvalues
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(ours, ref, atol=1e-10)


def test_eigen_validation():
    with pytest.raises(ConfigurationError):
        symmetric_eigen(np.zeros((2, 3)))
    with pytest.raises(ConfigurationError):
        symmetric_eigen(np.array([[1.0, .5], [0.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        symmetric_eigen(np.eye(65))


def test_eigen_descending_order_large():
    rng = np.random.default_rng(2)
    a = random_pd_matrix(rng, 16)
    a = 0.5 * (a + a.T)
    eigs = symmetric_eigen(a).eigenvalues
    assert all(x >= y for x, y in zip(eigs, eigs[1:]))


# ---------------------------------------------------------------------------
# Hessian oracle (helpers.py): the sharpness of a point

def test_hessian_oracle_is_the_closed_form_on_a_quadratic_with_weight_decay():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((6, 6))
    a, wd = m + m.T, 0.05
    spec = make_quadratic(a, rng.standard_normal(6), weight_decay=wd)
    hess, eigenvalues = hessian_oracle(spec, rng.standard_normal(6))
    expected = a + 2.0 * wd * np.eye(6)
    assert np.max(np.abs(hess - expected)) <= 1e-9
    assert np.max(np.abs(eigenvalues - np.linalg.eigvalsh(expected))) <= 1e-9


def _power_iteration_top(spec, w, batch, steps=60, h=HESSIAN_FD_STEP):
    """Rayleigh quotient after ``steps`` of power iteration on central-difference
    Hessian-vector products."""
    v = np.random.default_rng(0).standard_normal(w.size)
    v /= np.linalg.norm(v)
    top = None
    for _ in range(steps):
        _, g_up = eval_grad(spec, w + h * v, batch)
        _, g_down = eval_grad(spec, w - h * v, batch)
        hv = (g_up - g_down) / (2.0 * h)
        top = float(v @ hv)
        v = hv / np.linalg.norm(hv)
    return top


def test_hessian_oracle_top_eigenvalue_matches_power_iteration_on_sam_weights():
    # perfbench's moons task: a [2, 16, 2] MLP, 50 epochs of 25 batches of 64
    spec = make_mlp_classifier((2, 16, 2), activation="tanh", weight_decay=1e-4)
    ds = generate_dataset("moons", 2000, 0.15, seed=0)
    opt = OptimizerConfig(eta0=0.5, rho=0.05, gamma=0.9, lr_schedule="cosine")
    w = run_sam(spec, ds, opt, 50 * 25, 0, batch_size=64).w_final.values
    batch = whole_dataset_batch(train_test_split(ds)[0])
    _, eigenvalues = hessian_oracle(spec, w, batch)
    top = eigenvalues[-1]
    assert top >= abs(eigenvalues[0])  # power iteration finds the largest magnitude
    assert abs(_power_iteration_top(spec, w, batch) - top) <= 1e-6 * top


# ---------------------------------------------------------------------------
# curvature bound

def test_bound_aligned_gradient_is_tight():
    res = check_psf_bound(np.diag([2.0, 5.0]), np.array([1.0, 0.0]), 0.1)
    assert res.lhs == pytest.approx(0.2, abs=1e-15)
    assert res.rhs == pytest.approx(0.2, abs=1e-15)
    assert res.satisfied
    assert abs(res.slack) <= 1e-12
    assert np.allclose(np.abs(res.cos_angles), [0.0, 1.0], atol=1e-15)  # descending eigenvalues


def test_bound_identity_matrix():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = rng.standard_normal(5)
        res = check_psf_bound(np.eye(5), g, 1.0)
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs >= 1.0 - 1e-12
        assert res.satisfied


def test_bound_requires_pd_and_nonzero_gradient():
    with pytest.raises(ConfigurationError):
        check_psf_bound(np.diag([1.0, -2.0]), np.ones(2), 0.1)
    with pytest.raises(ConfigurationError):
        check_psf_bound(np.eye(2), np.zeros(2), 0.1)


@pytest.mark.parametrize("a, g, rho, message", [
    (np.zeros((2, 3)), np.ones(2), 0.1, "matrix must be square"),
    (np.ones(4), np.ones(2), 0.1, "matrix must be square"),
    (np.array([[1.0, .5], [0.0, 1.0]]), np.ones(2), 0.1, "matrix must be symmetric"),
    (np.eye(2), np.ones(3), 0.1, "gradient must be a vector of length 2"),
    (np.eye(2), np.ones((2, 1)), 0.1, "gradient must be a vector of length 2"),
    (np.eye(2), np.array([1.0, np.nan]), 0.1, "finite"),
    (np.diag([1.0, np.inf]), np.ones(2), 0.1, "finite"),
    (np.eye(2), np.ones(2), 0.0, "rho must be positive"),
    (np.eye(2), np.ones(2), -0.1, "rho must be positive"),
    (np.eye(2), np.ones(2), float("nan"), "rho must be positive"),
    (np.eye(2), np.ones(2), float("inf"), "rho must be positive"),
    (np.zeros((0, 0)), np.zeros(0), 0.1, "positive definite"),
])
def test_bound_rejects_malformed_input(a, g, rho, message):
    with pytest.raises(ConfigurationError, match=message):
        check_psf_bound(a, g, rho)


@pytest.mark.parametrize("cases, dims", [(0, (2, 6)), (5, (5, 2)), (5, (0, 0)), (5, (0, 3))])
def test_bound_sweep_rejects_bad_plan(cases, dims):
    with pytest.raises(ConfigurationError):
        bound_sweep(cases, dims, seed=0)


def test_bound_random_sweep_small():
    results = bound_sweep(100, (2, 6), seed=5)
    assert all(r.satisfied for r in results)


@pytest.mark.parametrize("dim", [65, 100])
def test_bound_above_the_oracle_cap(dim):
    rng = np.random.default_rng(dim)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.linspace(0.1, 5.0, dim)
    a = basis @ np.diag(eigs) @ basis.T
    a = 0.5 * (a + a.T)
    for idx in (0, dim // 2, dim - 1):
        res = check_psf_bound(a, basis[:, idx] * 1.7, 0.1)
        assert abs(res.lhs - res.rhs) <= 1e-10
        assert res.lhs == pytest.approx(0.1 * eigs[idx], rel=1e-12)
    for _ in range(10):
        assert check_psf_bound(a, rng.standard_normal(dim), 0.1).satisfied


def test_bound_eigenvector_aligned_equality():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_pd_matrix(rng, 4)
        a = 0.5 * (a + a.T)
        decomp = symmetric_eigen(a)
        idx = int(rng.integers(0, 4))
        g = decomp.eigenvectors[:, idx] * float(rng.random() + 0.5)
        res = check_psf_bound(a, g, 0.2)
        assert abs(res.lhs - res.rhs) <= 1e-10
        oracle_cosines = decomp.eigenvectors.T @ g / np.linalg.norm(g)
        assert np.allclose(np.abs(res.cos_angles), np.abs(oracle_cosines), atol=1e-10)


# ---------------------------------------------------------------------------
# decomposition residual

def test_residual_exact_on_quadratics():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_pd_matrix(rng, 5)
        a = 0.5 * (a + a.T)
        spec = make_quadratic(a, weight_decay=0.01)
        w = ParamVector(rng.standard_normal(5))
        assert decomposition_residual(spec, w, None, 0.1) <= 1e-9


def test_residual_zero_at_critical_point():
    spec = make_quadratic(np.diag([2.0, 3.0]))
    assert decomposition_residual(spec, ParamVector(np.zeros(2)), None, 0.1) == 0.0


def _residual_via_sam_gradient(spec, w, batch, rho):
    """The residual with the correction from a separate SAM step, which evaluates g again."""
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
    return float(np.linalg.norm(sam_gradient(spec, w, batch, rho).psf - rho * hv))


def test_residual_matches_the_sam_gradient_route_with_one_evaluation_fewer(monkeypatch):
    calls = []  # every eval_grad, wherever it is imported, runs objectives._evaluate
    original = objectives._evaluate

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(objectives, "_evaluate", counted)
    batch = whole_dataset_batch(generate_dataset("moons", 40, 0.2, seed=4))
    cases = [
        (make_quadratic([[3.0, 0.5], [0.5, 1.0]], [1.0, -1.0], weight_decay=0.01), None),
        (make_rosenbrock(3), None),
        (make_sharp_flat(0.08, 0.5, 0.3, 2.0), None),
        (make_mlp_classifier((2, 5, 3), weight_decay=1e-3), batch),
    ]
    rng = np.random.default_rng(12)
    for spec, b in cases:
        for _ in range(25):
            w = init_params(spec, int(rng.integers(1 << 30)))
            for rho in (0.2, 0.05, 1e-3):
                calls.clear()
                residual = decomposition_residual(spec, w, b, rho)
                made = len(calls)
                calls.clear()
                expected = _residual_via_sam_gradient(spec, w, b, rho)
                assert float_bits(residual) == float_bits(expected)
                assert made == len(calls) - 1 == (2 if spec.kind == "quadratic" else 4)


def test_residual_scales_quadratically_on_mlp():
    # halving rho should shrink the residual roughly 4x (interval from a
    # measured Taylor-remainder scan over random points)
    spec = make_mlp_classifier((2, 6, 2))
    batch = whole_dataset_batch(generate_dataset("blobs", 32, 0.4, seed=2))
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = init_params(spec, int(rng.integers(1 << 30)))
        big = decomposition_residual(spec, w, batch, 1e-3)
        small = decomposition_residual(spec, w, batch, 5e-4)
        assert big > 0.0
        assert 0.15 <= small / big <= 0.6


# ---------------------------------------------------------------------------
# convergence metric

def _rec(iteration, l2_sgd, l2_psf=None, dot=None):
    return MetricsRecord(iteration=iteration, epoch=0, train_loss=0.0,
                         l2_sgd=l2_sgd, sampled=True, cumulative_grad_evals=1,
                         wall_clock_seconds=0.0, l2_psf=l2_psf, dot_sgd_psf=dot)


def test_convergence_metric_worked_example():
    per_iter, running = convergence_metric(
        [_rec(1, 1.0, l2_psf=1.0, dot=0.0)], gamma=0.7)
    assert per_iter[0] == pytest.approx(1.49, abs=1e-15)
    assert running[0] == per_iter[0]


def test_convergence_metric_zero_gradients():
    per_iter, running = convergence_metric(
        [_rec(1, 0.0, l2_psf=0.0, dot=0.0)], gamma=0.9)
    assert per_iter[0] == 0.0 and running[0] == 0.0


def test_convergence_metric_nonnegative_and_zero_implies_zero_norms():
    spec = make_quadratic(np.diag([1.0, 6.0]))
    result = run_sam(spec, None, OptimizerConfig(eta0=0.05, rho=0.05), 100, seed=0,
                     w0=ParamVector(np.array([2.0, -1.5])))
    per_iter, _ = convergence_metric(result.records, gamma=0.9)
    assert np.all(per_iter >= 0.0)
    for value, rec in zip(per_iter, result.records):
        if value == 0.0:
            assert rec.l2_sgd == 0.0 and (rec.l2_psf or 0.0) == 0.0


def test_convergence_metric_running_mean_eventually_decreases():
    spec = make_quadratic(np.diag([1.0, 6.0]))
    result = run_sam(spec, None, OptimizerConfig(eta0=0.05, rho=0.05,
                                                 lr_schedule="constant"),
                     200, seed=0, w0=ParamVector(np.array([2.0, -1.5])))
    _, running = convergence_metric(result.records, gamma=0.9)
    tail = running[len(running) // 2:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert tail[-1] < tail[0]


# ---------------------------------------------------------------------------
# norm trace

def _trace_records():
    recs = []
    evals = 0
    for i in range(1, 11):
        sampled = i <= 5
        evals += 2 if sampled else 1
        recs.append(MetricsRecord(
            iteration=i, epoch=0, train_loss=1.0 / i, l2_sgd=0.5 * i,
            sampled=sampled, cumulative_grad_evals=evals, wall_clock_seconds=0.01 * i,
            l2_psf=0.25 if sampled else 0.25, psf_stale=not sampled,
            l2_sgd_subset=0.4 * i, l2_psf_subset=0.2))
    return recs


def test_norm_trace_preserves_order_and_flags():
    rows = norm_trace(_trace_records())
    assert len(rows) == 10
    assert [r["iteration"] for r in rows] == list(range(1, 11))
    assert [r["psf_stale"] for r in rows] == [False] * 5 + [True] * 5
    assert rows[0]["l2_sgd"] == 0.5


def test_norm_trace_rejects_empty():
    with pytest.raises(ConfigurationError):
        norm_trace([])


def test_norm_trace_csv_round_trip(tmp_path):
    rows = norm_trace(_trace_records())
    path = tmp_path / "norm_trace.csv"
    write_norm_trace(path, rows)
    assert read_norm_trace(path) == rows
