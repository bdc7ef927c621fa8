"""The training loop's contracts as seen from outside it.

The traced benchmark (``perfbench/run.py --trace 1``) wraps
``samlab.optim.eval_grad`` and ``samlab.optim.perturbation`` and fails a pass
whose call counts are not iterations + sampling number and sampling number.
These tests pin that, the loop's fixed number of ``ParamVector``
constructions, that a run leaves its inputs alone, the iteration and
partial records a ``NumericError`` leaves the loop with, the sliced
variances the loop settles in blocks, the traced sampler calls, and the
generator state the block draws leave behind.
"""

import warnings

import numpy as np
import pytest

from samlab import objectives, optim
from samlab.data import generate_dataset, make_batches, train_test_split
from samlab.errors import ConfigurationError, NumericError
from samlab.metrics import WALL_CLOCK_FIELDS
from samlab.objectives import (SHARP_FLAT_CALIBRATION, init_params, make_mlp_classifier,
                               make_quadratic, make_sharp_flat, mlp_accuracy)
from samlab.params import ParamVector
from samlab.sampler import SamplerConfig, change_rate_series, init_sampler, record_sample

from helpers import (float_bits, per_call_should_sample, record_dict, sam_gradient,
                     sampler_state_bits)

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


def _run(method, task, iterations=None, budget=None, momentum=0.0, **extra):
    spec, dataset, kwargs, default_iterations = TASKS[task]()
    opt = optim.OptimizerConfig(eta0=0.004 if task == "sharp_flat" else 0.05, rho=0.9,
                                momentum=momentum, lr_schedule="constant",
                                grad_eval_budget=budget)
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
    triple = sam_gradient(spec, w0, batch, 0.9)
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


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("method", METHODS)
def test_a_later_run_leaves_an_earlier_result_and_its_inputs_alone(method, task):
    """Each run updates its own copies of w0 and momentum0 in place, and nothing else."""
    spec, _, kwargs, _ = TASKS[task]()
    w0 = kwargs.get("w0") or init_params(spec, 2)
    momentum0 = np.random.default_rng(1).standard_normal(w0.size) * 1e-3
    w_before, m_before = w0.values.tobytes(), momentum0.tobytes()
    first = _run(method, task, iterations=30, momentum=0.5, w0=w0, momentum0=momentum0)
    assert w0.values.tobytes() == w_before and momentum0.tobytes() == m_before
    w_final, m_final = first.w_final.values.tobytes(), first.momentum_final.tobytes()
    assert w_final != w_before and m_final != m_before
    # a later run from the first one's results, and one from scratch
    _run(method, task, iterations=30, momentum=0.5, w0=first.w_final,
         momentum0=first.momentum_final)
    _run(method, task, iterations=30, momentum=0.5)
    assert first.w_final.values.tobytes() == w_final
    assert first.momentum_final.tobytes() == m_final
    assert w0.values.tobytes() == w_before and momentum0.tobytes() == m_before


def _rows(records, evals_before=0):
    return [{k: v for k, v in record_dict(r).items() if k not in WALL_CLOCK_FIELDS}
            | {"cumulative_grad_evals": r.cumulative_grad_evals + evals_before}
            for r in records]


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("method", ["sgd", "sam", "sam_k"])
def test_a_split_run_equals_the_uninterrupted_run(method, task):
    # sam_k samples every third iteration, so the second call starts off that beat
    whole = _run(method, task, iterations=40, momentum=0.9)
    first = _run(method, task, iterations=7, momentum=0.9, schedule_total=40)
    rest = _run(method, task, iterations=33, momentum=0.9, w0=first.w_final,
                momentum0=first.momentum_final, start_iteration=7, schedule_total=40)
    # each call counts its own gradient evaluations
    evals_before = first.records[-1].cumulative_grad_evals
    split = _rows(first.records) + _rows(rest.records, evals_before)
    assert repr(split) == repr(_rows(whole.records))
    assert rest.w_final.values.tobytes() == whole.w_final.values.tobytes()
    assert rest.momentum_final.tobytes() == whole.momentum_final.tobytes()
    assert (sum(r.sampled for r in whole.records) > 0) is (method != "sgd")


@pytest.mark.parametrize("method", ["sgd", "sam"])
def test_a_run_resumed_at_a_one_row_batch_equals_the_uninterrupted_run(method):
    # 1601 training rows in batches of 64: each epoch's 26th batch holds one row, and the
    # second call starts there, cutting its first epoch and skipping 25 of its batches
    spec = make_mlp_classifier((2, 6, 2), weight_decay=1e-4)
    dataset = generate_dataset("moons", 2001, 0.15, seed=3)
    opt = optim.OptimizerConfig(eta0=0.05, rho=0.9, momentum=0.9, lr_schedule="cosine")
    run = optim.run_sgd if method == "sgd" else optim.run_sam
    common = dict(batch_size=64, schedule_total=60)
    whole = run(spec, dataset, opt, 60, 0, **common)
    first = run(spec, dataset, opt, 25, 0, **common)
    rest = run(spec, dataset, opt, 35, 0, w0=first.w_final, momentum0=first.momentum_final,
               start_iteration=25, **common)
    split = _rows(first.records) + _rows(rest.records, first.records[-1].cumulative_grad_evals)
    assert repr(split) == repr(_rows(whole.records))
    assert rest.w_final.values.tobytes() == whole.w_final.values.tobytes()
    assert rest.momentum_final.tobytes() == whole.momentum_final.tobytes()


def _run_bits(result):
    """Everything a run returns but its wall clock, as comparable values."""
    state = result.sampler_state
    return (repr(_rows(result.records)), result.w_final.values.tobytes(),
            result.momentum_final.tobytes(),
            [snapshot.tobytes() for snapshot in result.params_history],
            None if state is None else (sampler_state_bits(state),
                                        state.rng_stream.bit_generator.state))


@pytest.mark.parametrize("method", METHODS)
def test_a_run_depends_on_the_weights_not_on_how_w0_was_built(method):
    # the subset norms come from the spec's layout, not from the start vector
    spec = TASKS["moons"]()[0]
    built = _run(method, "moons", momentum=0.5, w0=init_params(spec, 0), collect_params=True)
    bare = _run(method, "moons", momentum=0.5, w0=ParamVector(init_params(spec, 0).values),
                collect_params=True)
    assert _run_bits(bare) == _run_bits(built)
    assert all(r.l2_sgd_subset < r.l2_sgd for r in bare.records)


def test_a_named_subset_runs_from_a_bare_parameter_vector():
    spec, dataset, kwargs, iterations = _moons()
    opt = optim.OptimizerConfig(eta0=0.05, rho=0.9, lr_schedule="constant")
    scfg = SamplerConfig(n_window=10, m_slices=2, s1=4, i_start=10, subset_segments=["layer1.W"])
    w0 = init_params(spec, 0)
    runs = [optim.run_vsam(spec, dataset, opt, scfg, iterations, 0, w0=start,
                           collect_params=True, **kwargs)
            for start in (w0, ParamVector(w0.values.copy()))]
    assert _run_bits(runs[1]) == _run_bits(runs[0])
    train, _ = train_test_split(dataset)
    batch = make_batches(train, kwargs["batch_size"], 0, 0)[0]
    triple = sam_gradient(spec, w0, batch, 0.9, ["layer1.W"])
    first = runs[1].records[0]
    assert (first.l2_sgd_subset, first.l2_psf_subset) == (triple.l2_sgd_subset,
                                                          triple.l2_psf_subset)


def _shared_spec_runs(spec_for):
    """SGD, SAM and vSAM at batch sizes 50 and 64, each followed by a lone ``mlp_accuracy``.

    ``spec_for()`` gives each run its spec. 480 training rows: epochs end on
    short batches of 30 and 32 rows, and the held-out split has 120.
    """
    dataset = generate_dataset("moons", 600, 0.15, seed=3)
    probe = generate_dataset("moons", 37, 0.15, seed=5)
    opt = optim.OptimizerConfig(eta0=0.5, rho=0.05, lr_schedule="cosine")
    scfg = SamplerConfig(n_window=20, m_slices=4, alpha=0.13, s1=5, i_start=20)
    outcomes = []
    for batch_size in (50, 64):
        for method in ("sgd", "sam", "vsam"):
            spec = spec_for()
            common = dict(batch_size=batch_size, w0=init_params(spec, 0), collect_params=True)
            if method == "vsam":
                result = optim.run_vsam(spec, dataset, opt, scfg, 80, 0, **common)
            else:
                result = getattr(optim, f"run_{method}")(spec, dataset, opt, 80, 0, **common)
            accuracy = mlp_accuracy(spec, result.w_final, probe.inputs, probe.targets)
            outcomes.append((_run_bits(result), float_bits(accuracy)))
    return outcomes


def test_runs_sharing_one_spec_equal_runs_on_fresh_specs(monkeypatch):
    """The spec's plan keeps the MLP's scratch memory; no run leaks into the next through it."""
    built = []
    original = objectives._RowBuffers

    def counted(layout, rows):
        built.append(rows)
        return original(layout, rows)

    monkeypatch.setattr(objectives, "_RowBuffers", counted)
    shared = make_mlp_classifier((2, 16, 2), weight_decay=1e-4)
    on_one_spec = _shared_spec_runs(lambda: shared)
    # one set of row buffers per row count over all six runs and the lone calls
    assert sorted(built) == [30, 32, 37, 50, 64, 120]
    fresh = _shared_spec_runs(lambda: make_mlp_classifier((2, 16, 2), weight_decay=1e-4))
    assert on_one_spec == fresh


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


def test_overflowing_vsam_step_leaves_its_noted_sample_without_a_row():
    # iteration 2 notes a sample, then its step overflows before its row is built
    spec = make_quadratic([[1.0]])
    opt = optim.OptimizerConfig(eta0=1e155, lr_schedule="constant")
    cfg = SamplerConfig(n_window=20, m_slices=4, alpha=0.13, s1=5, i_start=20)
    with pytest.raises(NumericError) as info:
        optim.run_vsam(spec, None, opt, cfg, 10, 0, w0=ParamVector(np.array([1e-10])))
    err = info.value
    assert str(err) == "parameter vector contains non-finite values (iteration 2)"
    assert err.iteration == 2
    (row,) = err.partial_records
    assert row.sampled
    v, r, v_fallback = record_sample(init_sampler(cfg, 0), cfg, row.l2_psf_subset,
                                     row.l2_sgd_subset)
    assert (float_bits(row.v), float_bits(row.r), row.v_fallback) == \
        (float_bits(v), float_bits(r), v_fallback)


def _diverging_vsam():
    # 24 reuse rows, then a non-finite loss at iteration 92, in the window that began at 81
    spec = make_quadratic([[50.0, 0.0], [0.0, 1.0]])
    opt = optim.OptimizerConfig(eta0=1.0, lr_schedule="constant")
    with pytest.raises(NumericError) as info:
        DIVERGING["diverging_quadratic_vsam"][0](spec, opt, ParamVector(np.array([1.0, 1.0])))
    return info.value.partial_records, SamplerConfig(n_window=20, m_slices=4, alpha=0.13,
                                                     s1=5, i_start=20)


def _basin_vsam():
    # the warmup is five windows long: its 250 samples settle in one block with the
    # first window's
    cal = SHARP_FLAT_CALIBRATION
    spec, _, kwargs, _ = _sharp_flat()
    opt = optim.OptimizerConfig(eta0=cal["eta0"], rho=cal["rho"], gamma=0.9,
                                lr_schedule=cal["lr_schedule"])
    cfg = SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=25, i_start=250)
    result = optim.run_vsam(spec, None, opt, cfg, cal["iterations"], 3, **kwargs)
    return result.records, cfg, result.sampler_state


def _budget_vsam():
    # the budget ends the run in the middle of a window
    result = _run("vsam", "moons", budget=41)
    return result.records, SamplerConfig(n_window=10, m_slices=2, s1=4, i_start=10), \
        result.sampler_state


def _warmup_budget_vsam():
    # a warmup that ends off a window boundary, and the budget ends the run in the
    # middle of a later window
    spec, dataset, kwargs, iterations = _moons()
    opt = optim.OptimizerConfig(eta0=0.05, rho=0.9, lr_schedule="constant",
                                grad_eval_budget=55)
    cfg = SamplerConfig(n_window=10, m_slices=2, s1=4, i_start=15)
    result = optim.run_vsam(spec, dataset, opt, cfg, iterations, 0, **kwargs)
    return result.records, cfg, result.sampler_state


@pytest.mark.parametrize("run", [_diverging_vsam, _basin_vsam, _budget_vsam,
                                 _warmup_budget_vsam])
def test_settled_variances_equal_a_per_sample_replay(run):
    records, cfg, *final = run()
    replay = init_sampler(cfg, 0)
    updates = 0
    for record in records:
        if record.sampled:
            v, r, v_fallback = record_sample(replay, cfg, record.l2_psf_subset,
                                             record.l2_sgd_subset)
            assert float_bits(record.v) == float_bits(v)
            assert record.r == r and record.v_fallback == v_fallback
        else:
            assert record.v is None
        if record.iteration > cfg.i_start and (record.iteration - cfg.i_start) % cfg.n_window == 0:
            # the rate update at a window's end reads every variance up to its own row
            assert record.c_var == change_rate_series(replay.v_history, cfg.eps)
            updates += 1
    assert updates > 0
    if final:
        state = final[0]
        for name in ("gnorm_buffer", "v_history", "r_history"):
            assert getattr(state, name) == getattr(replay, name), name


def test_traced_sampler_names_count_iterations_and_windows(monkeypatch):
    # perfbench's per-layer sampler and evaluation metrics divide by these counts
    counts = {name: _counting(monkeypatch, name)
              for name in ("should_sample", "update_rate", "eval_grad", "perturbation")}
    records, cfg, _ = _basin_vsam()
    sampled = sum(1 for r in records if r.sampled)
    assert len(counts["should_sample"]) == len(records) == 800
    assert len(counts["update_rate"]) == (len(records) - cfg.i_start) // cfg.n_window == 11
    assert len(counts["eval_grad"]) == len(records) + sampled
    assert len(counts["perturbation"]) == sampled


def _warmup_only_vsam():
    # every iteration is inside the warmup: no window closes
    result = _run("vsam", "moons", iterations=8)
    return result.records, SamplerConfig(n_window=10, m_slices=2, s1=4, i_start=10), \
        result.sampler_state


@pytest.mark.parametrize("run", [_basin_vsam, _budget_vsam, _warmup_only_vsam])
def test_each_row_logs_what_its_own_decision_and_update_saw(monkeypatch, run):
    # p and s as should_sample saw them at the row's decision, and c_var and c_norm
    # from the latest rate update, the one at the row's own window end included
    seen, updates = {}, []
    decide, update = optim.should_sample, optim.update_rate

    def recording_decide(state, cfg, t):
        seen[t] = (state.p, state.s)
        return decide(state, cfg, t)

    def recording_update(state, cfg, noted):
        updates.append(update(state, cfg, noted))
        return updates[-1]

    monkeypatch.setattr(optim, "should_sample", recording_decide)
    monkeypatch.setattr(optim, "update_rate", recording_update)
    records, cfg, _ = run()

    def bits(pair):
        return tuple(None if x is None else float_bits(x) for x in pair)

    assert sorted(seen) == [row.iteration for row in records]
    latest = (None, None)
    for row in records:
        assert bits((row.p, row.s)) == bits(seen[row.iteration])
        t = row.iteration - cfg.i_start
        if t > 0 and t % cfg.n_window == 0:
            latest = updates[t // cfg.n_window - 1]
        assert bits((row.c_var, row.c_norm)) == bits(latest)
    assert len(updates) == max(records[-1].iteration - cfg.i_start, 0) // cfg.n_window


@pytest.mark.parametrize("run", [_diverging_vsam, _basin_vsam, _budget_vsam])
def test_block_draws_leave_the_generator_where_per_call_draws_do(monkeypatch, run):
    # a normal end, a NumericError and a budget stop
    outcomes = []
    for decide in (optim.should_sample, per_call_should_sample):
        created = []

        def init(cfg, seed):
            state = init_sampler(cfg, seed)
            created.append((state, state.rng_stream.bit_generator.state))
            return state

        monkeypatch.setattr(optim, "init_sampler", init)
        monkeypatch.setattr(optim, "should_sample", decide)
        records, *_ = run()
        rows = [{k: v for k, v in record_dict(r).items() if k not in WALL_CLOCK_FIELDS}
                for r in records]
        (state, initial), = created
        final = state.rng_stream.bit_generator.state
        assert final != initial  # the run made Bernoulli draws
        outcomes.append((repr(rows), final))
    assert outcomes[0] == outcomes[1]


def test_resuming_vsam_fails_before_any_work(monkeypatch):
    evals = _counting(monkeypatch, "eval_grad")
    with pytest.raises(ConfigurationError, match="cannot be resumed"):
        _run("vsam", "sharp_flat", start_iteration=20)
    assert evals == []
