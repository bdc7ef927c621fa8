"""Optimizer update rules and training loops.

A SAM step evaluates the gradient twice on the same mini-batch: once at w,
and once at w + rho * g/||g||. The difference between the two gradients is
the sharpness correction (called the PSF throughout this package); the
adaptive variant computes it only on sampled iterations and otherwise reuses
the most recent one, decayed by gamma per iteration of staleness.

All runners are deterministic given (config, seed): batches, initialization,
and sampling decisions each draw from their own seeded generator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import count, islice, repeat

import numpy as np

from .data import Batch, Dataset, batches_per_epoch, make_batches, train_test_split
from .errors import ConfigurationError, ContractViolationError, NumericError, check_number
from .metrics import MetricsRecord
# eval_loss, mlp_accuracy and subset_norm are imported for perfbench/tracer.py to wrap here
from .objectives import (Workspace, eval_grad, eval_heldout, eval_loss, init_params,
                         mlp_accuracy, prime_epoch)
from .params import (ParamVector, _zeros, default_subset, l2_norm, require_finite, subset_norm,
                     subset_selector)
# record_sample is imported for perfbench/tracer.py too; the loop calls note_sample and settle
from .sampler import (SamplerConfig, SamplerState, begin_windowing, init_sampler,
                      note_sample, record_sample, settle, should_sample, sync_draws,
                      update_rate)

LR_SCHEDULES = ("constant", "cosine", "inverse_t")

DEGENERATE_GRAD_NORM = 1e-12
REUSE_UNDERFLOW = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    eta0: float = 0.1
    rho: float = 0.05
    gamma: float = 0.9
    momentum: float = 0.0
    lr_schedule: str = "cosine"
    grad_eval_budget: int | None = None

    def __post_init__(self):
        for name in ("eta0", "rho", "gamma", "momentum"):
            check_number(name, getattr(self, name), float)
        if self.grad_eval_budget is not None:
            check_number("grad_eval_budget", self.grad_eval_budget, int)
        if self.eta0 <= 0.0:
            raise ConfigurationError("eta0 must be positive")
        if self.rho <= 0.0:
            raise ConfigurationError("rho must be positive")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigurationError("gamma must be in (0, 1]")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigurationError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.grad_eval_budget is not None and self.grad_eval_budget < 1:
            raise ConfigurationError("grad_eval_budget must be at least 1")


@dataclass
class PSFCache:
    psf: np.ndarray | None = None       # None until a correction is sampled
    sampled_at: int = -1
    l2_psf: float | None = None         # norms of psf, stored when it is sampled
    l2_psf_subset: float | None = None

    def store(self, psf, iteration, l2_psf, l2_psf_subset):
        self.psf, self.sampled_at = psf, iteration
        self.l2_psf, self.l2_psf_subset = l2_psf, l2_psf_subset


def learning_rates(opt: OptimizerConfig, first: int, total: int):
    """Learning rates at 1-based iterations first, first + 1, ... of a run planned for `total`."""
    eta0 = opt.eta0
    if opt.lr_schedule == "constant":
        return repeat(eta0)
    if opt.lr_schedule == "inverse_t":
        return (eta0 / t for t in count(first))
    return (0.5 * eta0 * (1.0 + math.cos(math.pi * (t - 1) / total)) for t in count(first))


def learning_rate(opt: OptimizerConfig, t: int, total: int) -> float:
    """Learning rate at 1-based iteration t of a run planned for `total`."""
    return next(learning_rates(opt, t, total))


def perturbation(g: np.ndarray, rho: float, norm: float | None = None) -> np.ndarray:
    """rho * g / ||g||; the zero vector when the gradient is degenerate.

    ``norm`` is ``l2_norm(g)`` when the caller already has it.
    """
    if rho <= 0.0:
        raise ConfigurationError("rho must be positive")
    if norm is None:
        norm = l2_norm(g)
    if norm < DEGENERATE_GRAD_NORM:
        return np.zeros_like(g)
    return (rho / norm) * g


def _apply_step(values, direction, eta, momentum, m, eta_m=None, zeros=None):
    """m = momentum * m + direction, then values -= eta * m, both in place.

    ``eta`` and ``momentum`` are floats or 0-d arrays. ``eta_m`` (for eta * m) and
    ``zeros`` (the finiteness screen's) are the caller's buffers, if it keeps them.
    NumericError when a weight is not finite.
    """
    np.multiply(momentum, m, out=m)
    m += direction
    values -= np.multiply(eta, m, out=eta_m)
    require_finite(values, zeros)


def _step(w: ParamVector, direction, eta, momentum, momentum_state):
    """``_apply_step`` on copies of a ParamVector's weights and the momentum (zeros if None)."""
    values = w.values.copy()
    m = np.zeros(values.size)
    if momentum_state is not None:
        m = np.array(momentum_state, dtype=np.float64)
    _apply_step(values, direction, eta, momentum, m)
    return w.with_values(values), m


def step_sgd(w: ParamVector, g_sgd, eta, momentum=0.0, momentum_state=None):
    """Momentum SGD update; with momentum 0 this is w - eta * g."""
    return _step(w, g_sgd, eta, momentum, momentum_state)


def step_sampling(w: ParamVector, triple, eta, momentum=0.0,
                  momentum_state=None, cache: PSFCache | None = None,
                  iteration: int | None = None):
    """Full SAM update from one SAM step's ``triple`` (``g_sam``, ``psf``, ``l2_psf``,
    ``l2_psf_subset``); caches the correction for reuse."""
    if cache is not None:
        cache.store(triple.psf, iteration, triple.l2_psf, triple.l2_psf_subset)
    return _step(w, triple.g_sam, eta, momentum, momentum_state)


def reuse_coefficient(gamma: float, staleness: int) -> float:
    """gamma ** staleness, treated as exactly zero below the underflow cutoff."""
    coef = gamma**staleness
    return coef if coef >= REUSE_UNDERFLOW else 0.0


def _reuse_direction(g_sgd, cache: PSFCache, i: int, gamma, out=None, coef_out=None):
    """g + gamma**staleness * cached correction at i, into ``out``; coefficient via ``coef_out``."""
    if cache.psf is None:
        raise ContractViolationError("reuse step before any correction was sampled")
    if i <= cache.sampled_at:
        raise ContractViolationError("reuse step must come after the cached sample")
    coef = reuse_coefficient(gamma, i - cache.sampled_at)
    if coef == 0.0:
        return g_sgd
    if coef_out is not None:
        coef_out[()] = coef
        coef = coef_out
    return np.add(g_sgd, np.multiply(coef, cache.psf, out=out), out=out)


def step_reuse(w: ParamVector, g_sgd, cache: PSFCache, i: int, eta, gamma,
               momentum=0.0, momentum_state=None):
    """Single-gradient update reusing the cached correction, decayed by staleness."""
    return _step(w, _reuse_direction(g_sgd, cache, i, gamma), eta, momentum, momentum_state)


# ---------------------------------------------------------------------------
# training loops

@dataclass
class RunResult:
    records: list[MetricsRecord]
    w_final: ParamVector
    momentum_final: np.ndarray
    params_history: list[np.ndarray] | None = None
    sampler_state: SamplerState | None = None


def _batch_stream(spec, train: Dataset, batch_size, seed, bpe, first_t):
    """(batch, epoch) of each iteration from ``first_t`` on, one epoch's batches at a time.

    An MLP's targets are checked and indexed once per epoch (``prime_epoch``).
    """
    t = first_t
    while True:
        epoch = (t - 1) // bpe
        batches = make_batches(train, batch_size, seed, epoch)
        if spec.kind == "mlp_classifier":
            prime_epoch(spec, batches)
        for batch in batches[(t - 1) % bpe:]:
            yield batch, epoch
            t += 1


def _train(spec, dataset: Dataset | None, opt: OptimizerConfig, iterations, seed, batch_size,
           w0, momentum0, start_iteration, schedule_total, collect_params, subset_names,
           samples_at, cfg: SamplerConfig | None = None) -> RunResult:
    """The one training loop; the runners differ only in its sampling policy.

    Every iteration evaluates the plain gradient. ``samples_at(t)`` says
    whether iteration t also evaluates the perturbed gradient and takes the
    full SAM step; other iterations take the plain SGD step. t is 1-based
    over the whole run, so a call that starts at ``start_iteration`` samples
    where the uninterrupted run would. With a sampler config the adaptive
    controller decides instead, non-sampled iterations reuse the cached
    correction with gamma decay, and the sampling rate is re-estimated at the
    end of every N-iteration window after warmup.

    An iteration whose second evaluation would exceed ``grad_eval_budget``
    takes its one-evaluation step instead (reuse when a correction is cached,
    plain SGD otherwise), and the run ends there.

    Inputs are checked once, up front, and what is fixed for the run is
    worked out once: its learning rates (``learning_rates``), the momentum
    as a 0-d array and the finiteness screen's cached zero vector. The run
    owns its float64 buffers, updated in place: the weights and the
    momentum, copies of ``w0`` and ``momentum0`` made at entry (so neither
    is ever written to), the perturbed point w + e, eta * m, a reuse row's
    decayed correction, and each iteration's eta and reuse coefficient (0-d).
    A step is m = momentum * m + direction, then weights -= eta * m. The run
    also owns the ``objectives.Workspace`` that every gradient and held-out
    evaluation writes its intermediates into. The loop checks
    each gradient, perturbed point and new weight vector for finiteness
    once, with numpy's floating-point warnings off. The result's ``w_final``
    and ``momentum_final`` are the run's buffers, which no later run
    touches. A NumericError leaves with its iteration and the records so far
    (``partial_records``), so that the harness can flush a partial trace.

    vSAM rows get their sliced variance ``v`` when the run stops: the loop
    notes each sample and keeps what ``settle`` returns before every rate
    update and whenever N samples are pending. However the run ends, a
    NumericError included, it then settles the rest, syncs the sampler's
    generator to where one draw per Bernoulli decision leaves it
    (``sync_draws``), and hands the variances to the sampled rows in order.
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")
    t0 = time.perf_counter()
    w0 = w0 if w0 is not None else init_params(spec, seed)
    if momentum0 is not None and np.shape(momentum0) != (w0.size,):
        raise ConfigurationError("momentum0 must hold one value per parameter")
    # the run's own buffers, updated in place: w0 and momentum0 are left as they are
    values = w0.values.copy()
    m = np.zeros(w0.size) if momentum0 is None else np.array(momentum0, dtype=np.float64)
    w_pert, eta_m, decayed = np.zeros((3, w0.size))
    zeros = _zeros(w0.size)
    workspace = Workspace()
    if subset_names is None:
        subset_names = default_subset(w0)
    elif not subset_names:
        raise ConfigurationError("subset_segments must name at least one segment")
    subset = subset_selector(w0, subset_names)
    bpe, test_batch, batches = 1, None, repeat((None, 0))
    if dataset is not None:
        if batch_size is None:
            raise ConfigurationError("batch_size is required when a dataset is given")
        train, test = train_test_split(dataset)
        bpe = batches_per_epoch(train.n, batch_size)
        batches = _batch_stream(spec, train, batch_size, seed, bpe, start_iteration + 1)
        if spec.kind == "mlp_classifier":
            test_batch = Batch(test.inputs, test.targets, np.arange(test.n))
    etas = learning_rates(opt, start_iteration + 1,
                          schedule_total or (start_iteration + iterations))
    rho, gamma, budget = opt.rho, opt.gamma, opt.grad_eval_budget
    # numpy multiplies by a 0-d array faster than by a float, to the same bits
    momentum, eta_now, coef = np.array(float(opt.momentum)), np.zeros(()), np.zeros(())
    history = [] if collect_params else None
    records = []
    state = cache = p = s = c_var = c_norm = None
    if cfg is not None:
        state, cache = init_sampler(cfg, seed), PSFCache()
        i_start, n_window = cfg.i_start, cfg.n_window
    settled = []  # the sliced variances settled so far, one per sample, oldest first
    evals, t = 0, start_iteration
    with np.errstate(all="ignore"):
        try:
            for (t, (batch, epoch)), eta in zip(
                    enumerate(islice(batches, iterations), start_iteration + 1), etas):
                loss, g_sgd = eval_grad(spec, values, batch, workspace)
                evals += 1
                l2_sgd = l2_norm(g_sgd)
                l2_sgd_subset = l2_sgd if subset is None else l2_norm(g_sgd[subset])
                if cfg is None:
                    wants_sample = samples_at(t)
                else:
                    wants_sample = should_sample(state, cfg, t)
                    p, s = state.p, state.s
                cut = wants_sample and budget is not None and evals >= budget
                sampled = wants_sample and not cut
                r = v_fallback = None
                if sampled:
                    np.add(values, perturbation(g_sgd, rho, l2_sgd), out=w_pert)
                    require_finite(w_pert, zeros)
                    _, g_sam = eval_grad(spec, w_pert, batch, workspace)
                    evals += 1
                    psf = g_sam - g_sgd
                    l2_psf = l2_norm(psf)
                    l2_psf_subset = l2_psf if subset is None else l2_norm(psf[subset])
                    if cfg is not None:
                        r, v_fallback = note_sample(state, cfg, l2_psf_subset, l2_sgd_subset)
                        cache.store(psf, t, l2_psf, l2_psf_subset)
                        if len(state.gnorm_buffer) - len(state.v_history) == n_window:
                            settled += settle(state, cfg)
                    direction, psf_stale, dot_sgd_psf = g_sam, False, float(g_sgd.dot(psf))
                elif cache is not None and (cache.psf is not None or not cut):
                    # an empty cache outside a budget cut is a broken contract: this raises
                    direction = _reuse_direction(g_sgd, cache, t, gamma, decayed, coef)
                    # reuse rows log the undecayed cached correction
                    l2_psf, psf_stale, l2_psf_subset = cache.l2_psf, True, cache.l2_psf_subset
                    dot_sgd_psf = float(g_sgd.dot(cache.psf))
                else:
                    direction = g_sgd
                    l2_psf = psf_stale = l2_psf_subset = dot_sgd_psf = None
                eta_now[()] = eta
                _apply_step(values, direction, eta_now, momentum, m, eta_m, zeros)
                if cfg is not None:
                    if t == i_start:
                        begin_windowing(state)
                    elif t > i_start and state.window_iter == n_window:
                        settled += settle(state, cfg)
                        c_var, c_norm = update_rate(state, cfg)
                eval_loss_v = eval_acc = None
                if test_batch is not None and t % bpe == 0:
                    eval_loss_v, eval_acc = eval_heldout(spec, values, test_batch, workspace)
                # positional, in MetricsRecord's field order; v is filled in when the run stops
                records.append(MetricsRecord(
                    t, epoch, loss, l2_sgd, sampled, evals, time.perf_counter() - t0,
                    eval_loss_v, eval_acc, l2_psf, psf_stale, l2_sgd_subset, l2_psf_subset,
                    p, s, None, r, c_var, c_norm, v_fallback, dot_sgd_psf))
                if history is not None:
                    history.append(values.copy())
                if budget is not None and evals >= budget:
                    break
        except NumericError as err:
            located = NumericError(str(err), iteration=t)
            located.partial_records = records
            raise located from err
        finally:
            if state is not None:
                settled += settle(state, cfg)
                sync_draws(state)
                # a sample noted in an iteration that raised before its row was built comes last
                for record, v in zip((row for row in records if row.r is not None), settled):
                    record.v = v
    return RunResult(records, w0.with_values(values), m, history, state)


def run_sgd(spec, dataset, opt: OptimizerConfig, iterations: int, seed: int,
            batch_size=None, w0=None, momentum0=None, start_iteration=0,
            schedule_total=None, collect_params=False):
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, None, lambda t: False)


def run_sam(spec, dataset, opt: OptimizerConfig, iterations: int, seed: int,
            batch_size=None, w0=None, momentum0=None, start_iteration=0,
            schedule_total=None, collect_params=False, subset_names=None):
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, subset_names, lambda t: True)


def run_sam_k(spec, dataset, opt: OptimizerConfig, k: int, iterations: int,
              seed: int, batch_size=None, w0=None, momentum0=None,
              start_iteration=0, schedule_total=None, collect_params=False,
              subset_names=None):
    """SAM where t % k == 0 (t 1-based over the whole run), plain SGD otherwise; k=1 is SAM."""
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, subset_names,
                  lambda t: t % k == 0)


def run_vsam(spec, dataset, opt: OptimizerConfig, sampler_config: SamplerConfig,
             iterations: int, seed: int, batch_size=None, w0=None, momentum0=None,
             start_iteration=0, schedule_total=None, collect_params=False):
    """Adaptive-sampling SAM.

    Warmup iterations and sampled iterations take the full SAM step; other
    iterations reuse the cached correction with gamma decay. Once the warmup
    ends, the sampling rate is re-estimated at the end of every N-iteration
    window.
    """
    if sampler_config.i_start < 1 and sampler_config.force != "always":
        raise ConfigurationError("need at least one warmup iteration to fill the cache")
    if start_iteration > 0:
        # the sampler state and the cached correction are not carried across calls yet
        raise ConfigurationError("a vSAM run cannot be resumed: start_iteration must be 0")
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params,
                  sampler_config.subset_segments, None, sampler_config)
