"""The training loop's contracts as seen from outside it.

The traced benchmark (``perfbench/run.py --trace 1``) wraps
``samlab.optim.eval_grad`` and ``samlab.optim.perturbation`` and fails a pass
whose call counts are not iterations + sampling number and sampling number.
These tests pin that, the loop's fixed number of ``ParamVector``
constructions, that a run leaves its inputs alone, and the iteration and
partial records a ``NumericError`` leaves the loop with.
"""

import warnings

import numpy as np
import pytest

from samlab import optim
from samlab.data import generate_dataset, make_batches, train_test_split
from samlab.errors import ConfigurationError, NumericError
from samlab.objectives import (SHARP_FLAT_CALIBRATION, init_params, make_mlp_classifier,
                               make_quadratic, make_sharp_flat)
from samlab.params import ParamVector
from samlab.sampler import SamplerConfig

METHODS = ("sgd", "sam", "sam_k", "vsam")


def _sharp_flat():
    cal = SHARP_FLAT_CALIBRATION
    spec = make_sharp_flat(cal["width_sharp"], cal["width_flat"], cal["depth_gap"],
                           cal["separation"])
    return spec, None, dict(w0=ParamVector(np.array([-1.05, 0.1]))), 120


def _moons():
    spec = make_mlp_classifier((2, 6, 2), weight_decay=1e-4)
    return spec, generate_dataset("moons", 64, 0.15, seed=3), dict(batch_size=16), 60


TASKS = {"sharp_flat": _sharp_flat, "moons": _moons}


def _run(method, task, iterations=None, budget=None, **extra):
    spec, dataset, kwargs, default_iterations = TASKS[task]()
    opt = optim.OptimizerConfig(eta0=0.004 if task == "sharp_flat" else 0.05, rho=0.9,
                                lr_schedule="constant", grad_eval_budget=budget)
    iterations = iterations or default_iterations
    kwargs.update(extra)
    if method == "sgd":
        return optim.run_sgd(spec, dataset, opt, iterations, 0, **kwargs)
    if method == "sam":
        return optim.run_sam(spec, dataset, opt, iterations, 0, **kwargs)
    if method == "sam_k":
        return optim.run_sam_k(spec, dataset, opt, 3, iterations, 0, **kwargs)
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=4, i_start=10)
    return optim.run_vsam(spec, dataset, opt, scfg, iterations, 0, **kwargs)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(optim, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(optim, name, counted)
    return calls


@pytest.mark.parametrize("budget", [None, 41])
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("method", METHODS)
def test_traced_names_count_every_evaluation(monkeypatch, method, task, budget):
    evals = _counting(monkeypatch, "eval_grad")
    second = _counting(monkeypatch, "perturbation")
    result = _run(method, task, budget=budget)
    records = result.records
    sampled = sum(1 for r in records if r.sampled)
    if budget is not None:
        assert records[-1].cumulative_grad_evals == budget
    assert len(evals) == len(records) + sampled == records[-1].cumulative_grad_evals
    assert len(second) == sampled
    assert (sampled > 0) is (method != "sgd")


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("method", METHODS)
def test_parameter_vectors_are_built_at_the_boundary_only(monkeypatch, method, task):
    built = []
    original = ParamVector.__post_init__

    def counted(self):
        built.append(None)
        original(self)

    monkeypatch.setattr(ParamVector, "__post_init__", counted)
    counts = []
    for iterations in (10, 200):
        built.clear()
        _run(method, task, iterations=iterations)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("method", ["sam", "vsam"])
def test_rows_log_the_norms_of_the_subset(method):
    # the default subset of the MLP is its last layer; the sharp/flat vector has one segment
    spec, dataset, kwargs, _ = _moons()
    w0 = init_params(spec, 0)
    train, _ = train_test_split(dataset)
    batch = make_batches(train, kwargs["batch_size"], 0, 0)[0]
    triple = optim.sam_gradient(spec, w0, batch, 0.9)
    first = _run(method, "moons", iterations=1).records[0]
    assert (first.l2_sgd, first.l2_psf) == (triple.l2_sgd, triple.l2_psf)
    assert (first.l2_sgd_subset, first.l2_psf_subset) == (triple.l2_sgd_subset,
                                                          triple.l2_psf_subset)
    assert first.l2_sgd_subset < first.l2_sgd
    for rec in _run(method, "sharp_flat").records:
        assert (rec.l2_sgd_subset, rec.l2_psf_subset) == (rec.l2_sgd, rec.l2_psf)


@pytest.mark.parametrize("method", METHODS)
def test_a_run_leaves_its_inputs_unmutated(method):
    w0 = ParamVector(np.array([-1.05, 0.1]))
    momentum0 = np.array([0.25, -0.5])
    w_before, m_before = w0.values.copy(), momentum0.copy()
    result = _run(method, "sharp_flat", w0=w0, momentum0=momentum0, collect_params=True)
    assert np.array_equal(w0.values, w_before)
    assert np.array_equal(momentum0, m_before)
    assert result.w_final.values is not w0.values
    assert not np.array_equal(result.w_final.values, w_before)


def test_momentum_state_must_match_the_weights():
    with pytest.raises(ConfigurationError, match="momentum0"):
        _run("sgd", "sharp_flat", momentum0=np.zeros(3))


# (runner, message, iteration, partial records, reuse rows among them)
DIVERGING = {
    "diverging_quadratic_sam": (
        lambda spec, opt, w0: optim.run_sam(spec, None, opt, 400, 0, w0=w0),
        "non-finite loss from quadratic objective (iteration 92)", 92, 91, 0),
    "diverging_quadratic_vsam": (
        lambda spec, opt, w0: optim.run_vsam(
            spec, None, opt, SamplerConfig(n_window=20, m_slices=4, alpha=0.13, s1=5,
                                           i_start=20), 400, 0, w0=w0),
        "non-finite loss from quadratic objective (iteration 92)", 92, 91, 24),
}


@pytest.mark.parametrize("case", DIVERGING)
def test_diverging_run_reports_iteration_and_partial_records(case):
    run, message, iteration, n_partial, n_reuse = DIVERGING[case]
    spec = make_quadratic([[50.0, 0.0], [0.0, 1.0]])
    opt = optim.OptimizerConfig(eta0=1.0, lr_schedule="constant")
    with pytest.raises(NumericError) as info:
        run(spec, opt, ParamVector(np.array([1.0, 1.0])))
    err = info.value
    assert str(err) == message
    assert err.iteration == iteration
    assert len(err.partial_records) == n_partial
    assert [r.iteration for r in err.partial_records] == list(range(1, n_partial + 1))
    assert sum(1 for r in err.partial_records if r.psf_stale) == n_reuse


def test_overflowing_step_fails_the_weight_check_without_a_warning():
    spec = make_quadratic(np.eye(2))
    opt = optim.OptimizerConfig(eta0=1e306)
    with warnings.catch_warnings():
        # numpy's floating-point warnings are off inside the loop
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as info:
            optim.run_sgd(spec, None, opt, 10, 0, w0=ParamVector(np.array([1e3, 1.0])))
    err = info.value
    assert str(err) == "parameter vector contains non-finite values (iteration 1)"
    assert err.iteration == 1
    assert err.partial_records == []
