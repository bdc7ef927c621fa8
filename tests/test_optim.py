import math

import numpy as np
import pytest

from samlab.data import generate_dataset
from samlab.errors import ConfigurationError, ContractViolationError
from samlab.harness import config_from_dict, run_experiment, verify_run
from samlab.metrics import FIELD_ORDER, WALL_CLOCK_FIELDS, read_metrics_csv
from samlab.objectives import init_params, make_mlp_classifier, make_quadratic
from samlab.optim import (GradientTriple, OptimizerConfig, PSFCache, learning_rate,
                          perturbation, reuse_coefficient, run_sam, run_sam_k,
                          run_sgd, run_vsam, sam_gradient, step_reuse,
                          step_sampling, step_sgd)
from samlab.params import ParamVector
from samlab.sampler import SamplerConfig

# one SAM step on the diag(1,10) quadratic from (1,1), eta=0.01, rho=0.1,
# computed by an independent closed-form script: w - eta*A*(w + rho*A w/||A w||)
ONE_STEP_ORACLE = (0.989900496280979, 0.8900496280979001)
# the corresponding correction, rho*A*g/||g|| with g=(1,10)
PSF_ORACLE = (0.009950371902099893, 0.9950371902099892)


def _pv(*values):
    return ParamVector(np.array(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# perturbation

def test_perturbation_direction_and_scale():
    eps = perturbation(np.array([3.0, 4.0]), 0.05)
    assert np.allclose(eps, [0.03, 0.04], atol=1e-15)


def test_perturbation_degenerate_gradient():
    assert np.all(perturbation(np.zeros(3), 0.5) == 0.0)
    assert np.all(perturbation(np.full(3, 1e-13), 0.5) == 0.0)


def test_perturbation_norm_is_rho():
    rng = np.random.default_rng(1)
    g = rng.standard_normal(100)
    norm = np.linalg.norm(perturbation(g, 0.1))
    assert abs(norm - 0.1) <= 1e-12


def test_perturbation_requires_positive_rho():
    with pytest.raises(ConfigurationError):
        perturbation(np.ones(2), 0.0)


# ---------------------------------------------------------------------------
# sam_gradient

def test_sam_gradient_quadratic_closed_form():
    spec = make_quadratic(np.diag([1.0, 10.0]))
    triple = sam_gradient(spec, _pv(1.0, 1.0), None, 0.1)
    assert np.allclose(triple.psf, PSF_ORACLE, atol=1e-12)
    assert np.array_equal(triple.psf, triple.g_sam - triple.g_sgd)
    assert triple.l2_sgd == np.linalg.norm(triple.g_sgd)
    assert triple.l2_psf == np.linalg.norm(triple.psf)


def test_sam_gradient_psf_linear_in_rho():
    spec = make_quadratic(np.diag([1.0, 10.0]))
    w = _pv(1.0, 1.0)
    big = sam_gradient(spec, w, None, 0.1)
    small = sam_gradient(spec, w, None, 0.05)
    assert np.allclose(small.psf, 0.5 * big.psf, atol=1e-12)


def test_sam_gradient_zero_gradient_point():
    spec = make_quadratic(np.diag([1.0, 10.0]))
    triple = sam_gradient(spec, _pv(0.0, 0.0), None, 0.1)
    assert np.array_equal(triple.g_sam, triple.g_sgd)
    assert np.all(triple.psf == 0.0)


def test_sam_gradient_closed_form_random_pd_sweep():
    rng = np.random.default_rng(2)
    for _ in range(25):
        dim = int(rng.integers(2, 10))
        m = rng.standard_normal((dim, dim))
        a = m @ m.T + 0.2 * np.eye(dim)
        spec = make_quadratic(a)
        w = ParamVector(rng.standard_normal(dim))
        g = a @ w.values
        triple = sam_gradient(spec, w, None, 0.08)
        expected = 0.08 * (a @ g) / np.linalg.norm(g)
        assert np.max(np.abs(triple.psf - expected)) <= 1e-9


# ---------------------------------------------------------------------------
# step rules

def test_step_sgd_plain():
    w, m = step_sgd(_pv(1.0, 1.0), np.array([1.0, 10.0]), 0.1)
    assert np.allclose(w.values, [0.9, 0.0], atol=1e-15)
    assert np.array_equal(m, [1.0, 10.0])


def test_step_sgd_zero_eta_is_identity():
    w, _ = step_sgd(_pv(2.0, -3.0), np.array([5.0, 5.0]), 0.0)
    assert np.array_equal(w.values, [2.0, -3.0])


def test_step_sgd_momentum_recurrence():
    # hand recurrence: m_t = 0.9 m_{t-1} + g, w_t = w_{t-1} - 0.1 m_t
    g = np.array([1.0, 10.0])
    w, m = step_sgd(_pv(1.0, 1.0), g, 0.1, momentum=0.9)
    assert np.allclose(w.values, [0.9, 0.0], atol=1e-15)
    w, m = step_sgd(w, g, 0.1, momentum=0.9, momentum_state=m)
    assert np.allclose(m, [1.9, 19.0], atol=1e-15)
    assert np.allclose(w.values, [0.71, -1.9], atol=1e-15)


def test_step_sampling_direct():
    triple = GradientTriple(
        g_sgd=np.zeros(2), g_sam=np.array([2.0, 2.0]), psf=np.array([2.0, 2.0]),
        l2_sgd=0.0, l2_psf=math.sqrt(8.0), l2_sgd_subset=0.0,
        l2_psf_subset=math.sqrt(8.0))
    cache = PSFCache()
    w, _ = step_sampling(_pv(1.0, 1.0), triple, 0.5, cache=cache, iteration=7)
    assert np.array_equal(w.values, [0.0, 0.0])
    assert cache.valid and cache.sampled_at == 7
    assert np.array_equal(cache.psf, triple.psf)


def test_step_sampling_zero_eta_is_identity():
    triple = GradientTriple(np.ones(2), np.ones(2) * 2, np.ones(2), 0, 0, 0, 0)
    w, _ = step_sampling(_pv(4.0, 5.0), triple, 0.0)
    assert np.array_equal(w.values, [4.0, 5.0])


def test_one_sam_step_matches_closed_form_oracle():
    spec = make_quadratic(np.diag([1.0, 10.0]))
    w = _pv(1.0, 1.0)
    triple = sam_gradient(spec, w, None, 0.1)
    w_next, _ = step_sampling(w, triple, 0.01)
    assert np.allclose(w_next.values, ONE_STEP_ORACLE, atol=1e-15)


def test_step_reuse_decay():
    cache = PSFCache(psf=np.array([0.0, 1.0]), sampled_at=5, valid=True)
    w, _ = step_reuse(_pv(0.0, 0.0), np.array([1.0, 0.0]), cache, 7, 1.0, 0.7)
    assert np.allclose(w.values, [-1.0, -0.49], atol=1e-15)


def test_step_reuse_no_decay_at_gamma_one():
    cache = PSFCache(psf=np.array([0.5, 0.5]), sampled_at=1, valid=True)
    w, _ = step_reuse(_pv(0.0, 0.0), np.array([1.0, 1.0]), cache, 2, 1.0, 1.0)
    assert np.array_equal(w.values, [-1.5, -1.5])


def test_step_reuse_underflow_drops_correction():
    cache = PSFCache(psf=np.array([100.0, 100.0]), sampled_at=0, valid=True)
    w, _ = step_reuse(_pv(0.0, 0.0), np.array([1.0, 0.0]), cache, 1000, 0.1, 0.7)
    expected, _ = step_sgd(_pv(0.0, 0.0), np.array([1.0, 0.0]), 0.1)
    assert np.array_equal(w.values, expected.values)


def test_step_reuse_contract_violations():
    with pytest.raises(ContractViolationError):
        step_reuse(_pv(0.0), np.array([1.0]), PSFCache(), 3, 0.1, 0.9)
    cache = PSFCache(psf=np.array([1.0]), sampled_at=5, valid=True)
    with pytest.raises(ContractViolationError):
        step_reuse(_pv(0.0), np.array([1.0]), cache, 5, 0.1, 0.9)


def test_reuse_coefficient_monotone():
    coefs = [reuse_coefficient(0.7, k) for k in range(0, 30)]
    assert coefs[0] == 1.0
    assert all(a >= b for a, b in zip(coefs, coefs[1:]))
    assert reuse_coefficient(0.7, 1000) == 0.0


# ---------------------------------------------------------------------------
# schedules

def test_learning_rate_schedules():
    const = OptimizerConfig(eta0=0.2, lr_schedule="constant")
    assert learning_rate(const, 17, 100) == 0.2
    inv = OptimizerConfig(eta0=0.2, lr_schedule="inverse_t")
    assert learning_rate(inv, 4, 100) == 0.05
    cos = OptimizerConfig(eta0=0.2, lr_schedule="cosine")
    assert learning_rate(cos, 1, 100) == 0.2
    assert learning_rate(cos, 51, 100) == pytest.approx(0.1, rel=1e-12)
    assert learning_rate(cos, 100, 100) < 0.001


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(eta0=0.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(rho=-1.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(gamma=0.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(momentum=1.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(lr_schedule="linear")
    with pytest.raises(ConfigurationError):
        OptimizerConfig(grad_eval_budget=0)


# ---------------------------------------------------------------------------
# runners

def _mlp_setup():
    spec = make_mlp_classifier((2, 6, 2), weight_decay=1e-4)
    ds = generate_dataset("moons", 64, 0.15, seed=3)
    return spec, ds


def test_run_sam_k1_identical_to_sam():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.1, rho=0.05)
    a = run_sam_k(spec, ds, opt, 1, 40, seed=0, batch_size=16, collect_params=True)
    b = run_sam(spec, ds, opt, 40, seed=0, batch_size=16, collect_params=True)
    for x, y in zip(a.params_history, b.params_history):
        assert np.array_equal(x, y)


def test_run_sam_k_counts():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05)
    result = run_sam_k(spec, ds, opt, 5, 100, seed=0, batch_size=16)
    sam_steps = sum(1 for r in result.records if r.sampled)
    assert sam_steps == 20
    assert result.records[-1].cumulative_grad_evals == 120


def test_grad_eval_budget_stops_run():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05, grad_eval_budget=50)
    result = run_sam(spec, ds, opt, 1000, seed=0, batch_size=16)
    assert result.records[-1].cumulative_grad_evals == 50
    assert len(result.records) == 25


@pytest.mark.parametrize("budget", [1, 5, 51])
@pytest.mark.parametrize("optimizer", ["sgd", "sam", "sam_k", "vsam"])
def test_grad_eval_budget_is_exact(tmp_path, optimizer, budget):
    # an odd budget is crossed by a second evaluation; that iteration steps once
    payload = {
        "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 6, 2]},
        "dataset": {"kind": "moons", "n": 64, "noise": 0.15, "seed": 3},
        "optimizer": optimizer,
        "optimizer_config": {"eta0": 0.05, "rho": 0.05, "grad_eval_budget": budget},
        "sampler_config": {"n_window": 10, "m_slices": 2, "s1": 5, "i_start": 10},
        "k": 3,
        "iterations": 100,
        "batch_size": 16,
        "seeds": [0],
        "output_dir": str(tmp_path / "run"),
    }
    out = run_experiment(config_from_dict(payload))
    records = read_metrics_csv(out / "seed_0" / "metrics.csv")
    assert records[-1].cumulative_grad_evals == budget
    ok, lines = verify_run(out / "seed_0")
    assert ok, lines


def test_vsam_cost_accounting():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05, gamma=0.9)
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=5, i_start=10)
    result = run_vsam(spec, ds, opt, scfg, 80, seed=1, batch_size=16)
    samples = sum(1 for r in result.records if r.sampled)
    assert result.records[-1].cumulative_grad_evals == len(result.records) + samples
    # warmup always samples
    assert all(r.sampled for r in result.records[:10])


def test_vsam_always_fire_bit_identical_to_sam_with_momentum():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05, momentum=0.9)
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=5, i_start=10, p_max=1.0,
                         force="always")
    a = run_vsam(spec, ds, opt, scfg, 60, seed=2, batch_size=16, collect_params=True)
    b = run_sam(spec, ds, opt, 60, seed=2, batch_size=16, collect_params=True)
    for x, y in zip(a.params_history, b.params_history):
        assert np.array_equal(x, y)


SAMPLER_COLUMNS = {"p", "s", "v", "r", "c_var", "c_norm", "v_fallback"}


def _columns(result, skip):
    names = [n for n in FIELD_ORDER if n not in WALL_CLOCK_FIELDS | skip]
    return [[getattr(r, n) for n in names] for r in result.records]


@pytest.mark.parametrize("policy", ["vsam_always_is_sam", "sam_k_large_is_sgd",
                                    "sam_k1_is_sam"])
def test_degenerate_policies_give_identical_records(policy):
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05, momentum=0.5)
    kw = dict(seed=4, batch_size=16)
    skip = set()
    if policy == "vsam_always_is_sam":
        scfg = SamplerConfig(n_window=10, m_slices=2, s1=5, i_start=10, p_max=1.0,
                             force="always")
        a, b = run_vsam(spec, ds, opt, scfg, 40, **kw), run_sam(spec, ds, opt, 40, **kw)
        skip = SAMPLER_COLUMNS
    elif policy == "sam_k_large_is_sgd":
        a, b = run_sam_k(spec, ds, opt, 41, 40, **kw), run_sgd(spec, ds, opt, 40, **kw)
    else:
        a, b = run_sam_k(spec, ds, opt, 1, 40, **kw), run_sam(spec, ds, opt, 40, **kw)
    assert _columns(a, skip) == _columns(b, skip)
    assert np.array_equal(a.w_final.values, b.w_final.values)
    assert np.array_equal(a.momentum_final, b.momentum_final)


def test_vsam_reuse_rows_flag_stale_correction():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05, gamma=0.9)
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=1, i_start=5, force="never")
    result = run_vsam(spec, ds, opt, scfg, 30, seed=3, batch_size=16)
    stale = [r for r in result.records if not r.sampled]
    assert stale, "expected reuse iterations"
    last_fresh = [r for r in result.records if r.sampled][-1]
    for rec in stale:
        assert rec.psf_stale is True
        assert rec.l2_psf == last_fresh.l2_psf  # carries the last-sampled value


def test_vsam_requires_warmup_unless_forced():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig()
    with pytest.raises(ConfigurationError):
        run_vsam(spec, ds, opt, SamplerConfig(n_window=10, m_slices=2, s1=5, i_start=0),
                 10, seed=0, batch_size=16)


def test_runs_are_deterministic():
    spec, ds = _mlp_setup()
    opt = OptimizerConfig(eta0=0.05, rho=0.05)
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=5, i_start=10)
    a = run_vsam(spec, ds, opt, scfg, 50, seed=5, batch_size=16)
    b = run_vsam(spec, ds, opt, scfg, 50, seed=5, batch_size=16)
    assert np.array_equal(a.w_final.values, b.w_final.values)
    assert [r.sampled for r in a.records] == [r.sampled for r in b.records]
    assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]


def test_sgd_ignores_rho_and_gamma():
    spec, ds = _mlp_setup()
    a = run_sgd(spec, ds, OptimizerConfig(eta0=0.05, rho=0.05, gamma=0.9),
                30, seed=0, batch_size=16)
    b = run_sgd(spec, ds, OptimizerConfig(eta0=0.05, rho=0.9, gamma=0.1),
                30, seed=0, batch_size=16)
    assert np.array_equal(a.w_final.values, b.w_final.values)
