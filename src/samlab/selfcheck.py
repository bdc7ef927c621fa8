"""Fast end-to-end invariant suite behind the ``samlab selfcheck`` command.

Small-budget versions of the package's core guarantees; the full-budget
versions live in the test suite. Prints one PASS/FAIL line per invariant.
"""

from __future__ import annotations

import numpy as np

from .data import Batch, generate_dataset
from .diagnostics import bound_sweep, decomposition_residual
from .objectives import (eval_grad, fd_gradient, init_params, make_mlp_classifier,
                         make_quadratic, make_rosenbrock, make_sharp_flat)
from .optim import OptimizerConfig, perturbation, run_sam, run_sgd, run_vsam
from .params import ParamVector
from .sampler import (SamplerConfig, init_sampler, note_sample, record_sample, sliced_variance,
                      update_rate)


def _grad_agreement():
    rng = np.random.default_rng(11)
    specs = {
        "quadratic": make_quadratic(np.array([[2.0, 0.5], [0.5, 3.0]]), weight_decay=0.01),
        "rosenbrock": make_rosenbrock(3),
        "sharp_flat": make_sharp_flat(0.1, 0.5, 0.2, 2.0),
        "mlp_classifier": make_mlp_classifier((2, 6, 2), weight_decay=1e-3),
    }
    ds = generate_dataset("blobs", 32, 0.3, 5)
    batch = Batch(ds.inputs, ds.targets, np.arange(ds.n))
    for name, spec in specs.items():
        b = batch if name == "mlp_classifier" else None
        for _ in range(10):
            w = ParamVector(init_params(spec, int(rng.integers(1 << 30))).values * 0.5)
            _, g = eval_grad(spec, w, b)
            fd = fd_gradient(spec, w, b, 1e-5)
            err = np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0))
            if err > 1e-5:
                return False
    return True


def _perturbation_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal(40)
        eps = perturbation(g, 0.2)
        if abs(float(np.linalg.norm(eps)) - 0.2) > 1e-12:
            return False
    return np.all(perturbation(np.zeros(4), 0.5) == 0.0)


def _quadratic_psf_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        m = rng.standard_normal((dim, dim))
        a = m @ m.T + 0.5 * np.eye(dim)
        spec = make_quadratic(a)
        w = init_params(spec, int(rng.integers(1 << 30)))
        if decomposition_residual(spec, w, None, 0.1) > 1e-9:
            return False
    return True


def _bound_holds():
    return all(r.satisfied for r in bound_sweep(200, (2, 6), seed=6))


def _residual_quadratic():
    spec = make_quadratic(np.array([[3.0, 1.0], [1.0, 2.0]]))
    w = init_params(spec, 9)
    return decomposition_residual(spec, w, None, 0.05) <= 1e-9


def _sampler_replay():
    # noting samples and settling them at each rate update must equal settling each one
    cfg = SamplerConfig(n_window=10, m_slices=2, alpha=0.3, s1=5, i_start=5)
    state = init_sampler(cfg, 0)
    rng = np.random.default_rng(8)
    history = []
    updates_at = []
    for step in range(60):
        psf = float(rng.random() * (0.0 if rng.random() < 0.1 else 3.0))
        sgd = float(rng.random() * (0.0 if rng.random() < 0.1 else 2.0))
        note_sample(state, cfg, psf, sgd)
        history.append((psf, sgd))
        if step % 10 == 9:
            update_rate(state, cfg)
            updates_at.append(len(history))
    # replay
    replay = init_sampler(cfg, 0)
    k = 0
    for idx, (psf, sgd) in enumerate(history, start=1):
        record_sample(replay, cfg, psf, sgd)
        if k < len(updates_at) and updates_at[k] == idx:
            update_rate(replay, cfg)
            k += 1
    return (replay.s == state.s and replay.p == state.p
            and replay.gnorm_buffer == state.gnorm_buffer
            and replay.v_history == state.v_history
            and replay.r_history == state.r_history)


def _degenerate_equivalences():
    spec = make_quadratic(np.diag([1.0, 4.0, 9.0]))
    opt = OptimizerConfig(eta0=0.05, rho=0.1, gamma=1e-300, momentum=0.0,
                          lr_schedule="cosine")
    iters = 60
    always = SamplerConfig(n_window=10, m_slices=2, s1=8, i_start=10, p_max=1.0,
                           force="always")
    never = SamplerConfig(n_window=10, m_slices=2, s1=8, i_start=10, force="never")

    vs = run_vsam(spec, None, opt, always, iters, seed=1, collect_params=True)
    sam = run_sam(spec, None, opt, iters, seed=1, collect_params=True)
    if any(not np.array_equal(a, b) for a, b in zip(vs.params_history, sam.params_history)):
        return False

    vn = run_vsam(spec, None, opt, never, iters, seed=1, collect_params=True)
    w_mid = vn.params_history[never.i_start - 1]
    sgd = run_sgd(spec, None, opt, iters - never.i_start, seed=1,
                  w0=ParamVector(w_mid), start_iteration=never.i_start,
                  schedule_total=iters, collect_params=True)
    return all(np.array_equal(a, b)
               for a, b in zip(vn.params_history[never.i_start:], sgd.params_history))


def _accounting_and_determinism():
    spec = make_mlp_classifier((2, 5, 2))
    opt = OptimizerConfig(eta0=0.1, rho=0.05, gamma=0.9)
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=5, i_start=10)
    ds_spec = ("moons", 64, 0.15, 3)
    ds = generate_dataset(*ds_spec)
    r1 = run_vsam(spec, ds, opt, scfg, 50, seed=2, batch_size=16)
    samples = sum(1 for rec in r1.records if rec.sampled)
    if r1.records[-1].cumulative_grad_evals != len(r1.records) + samples:
        return False
    r2 = run_vsam(spec, generate_dataset(*ds_spec), opt, scfg, 50, seed=2, batch_size=16)
    for a, b in zip(r1.records, r2.records):
        if a.iteration != b.iteration or a.train_loss != b.train_loss:
            return False
        if not np.array_equal(r1.w_final.values, r2.w_final.values):
            return False
    return True


def _sliced_variance_example():
    return sliced_variance([3, 1, 2, 5, 4, 9, 7, 8, 6, 10], 2) == 2.0


CHECKS = [
    ("analytic gradients match finite differences", _grad_agreement),
    ("perturbation has norm rho (zero when degenerate)", _perturbation_norm),
    ("quadratic correction matches rho*A*g/||g||", _quadratic_psf_closed_form),
    ("curvature bound holds on random PD sweep", _bound_holds),
    ("decomposition residual exact on quadratics", _residual_quadratic),
    ("sampler state equals from-scratch replay", _sampler_replay),
    ("always-sample == SAM, never-sample == SGD", _degenerate_equivalences),
    ("cost accounting and determinism", _accounting_and_determinism),
    ("sliced variance worked example", _sliced_variance_example),
]


def run_selfcheck() -> bool:
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok = bool(fn())
        except Exception as err:  # noqa: BLE001 - a crash is a failed check
            ok = False
            name = f"{name} ({err})"
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok
