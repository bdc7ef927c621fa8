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

import numpy as np

from .data import Batch, Dataset, batches_per_epoch, make_batches, train_test_split
from .errors import ConfigurationError, ContractViolationError, NumericError
from .metrics import MetricsRecord
from .objectives import ObjectiveSpec, eval_grad, eval_loss, init_params, mlp_accuracy
from .params import ParamVector, default_subset, l2_norm, subset_index, subset_norm
from .sampler import (SamplerConfig, SamplerState, begin_windowing, init_sampler,
                      record_sample, should_sample, update_rate)

LR_SCHEDULES = ("constant", "cosine", "inverse_t")

DEGENERATE_GRAD_NORM = 1e-12
REUSE_UNDERFLOW = 1e-12


@dataclass
class OptimizerConfig:
    eta0: float = 0.1
    rho: float = 0.05
    gamma: float = 0.9
    momentum: float = 0.0
    lr_schedule: str = "cosine"
    grad_eval_budget: int | None = None

    def __post_init__(self):
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
class GradientTriple:
    g_sgd: np.ndarray
    g_sam: np.ndarray
    psf: np.ndarray
    l2_sgd: float
    l2_psf: float
    l2_sgd_subset: float
    l2_psf_subset: float


@dataclass
class PSFCache:
    psf: np.ndarray | None = None
    sampled_at: int = -1
    valid: bool = False
    l2_psf: float | None = None         # norms of psf, stored when it is sampled
    l2_psf_subset: float | None = None


def learning_rate(opt: OptimizerConfig, t: int, total: int) -> float:
    """Learning rate at 1-based iteration t of a run planned for `total`."""
    if opt.lr_schedule == "constant":
        return opt.eta0
    if opt.lr_schedule == "inverse_t":
        return opt.eta0 / t
    return 0.5 * opt.eta0 * (1.0 + math.cos(math.pi * (t - 1) / total))


def perturbation(g: np.ndarray, rho: float) -> np.ndarray:
    """rho * g / ||g||; the zero vector when the gradient is degenerate."""
    if rho <= 0.0:
        raise ConfigurationError("rho must be positive")
    norm = l2_norm(g)
    if norm < DEGENERATE_GRAD_NORM:
        return np.zeros_like(g)
    return (rho / norm) * g


def _second_grad(spec, w, batch, rho, g_sgd):
    w_pert = w.with_values(w.values + perturbation(g_sgd, rho))
    _, g_sam = eval_grad(spec, w_pert, batch)
    return g_sam


def sam_gradient(spec: ObjectiveSpec, w: ParamVector, batch: Batch | None,
                 rho: float, subset_names=None) -> GradientTriple:
    """Both gradient evaluations of one SAM step (cost: exactly two)."""
    if subset_names is None:
        subset_names = default_subset(w)
    _, g_sgd = eval_grad(spec, w, batch)
    g_sam = _second_grad(spec, w, batch, rho, g_sgd)
    psf = g_sam - g_sgd
    return GradientTriple(
        g_sgd=g_sgd,
        g_sam=g_sam,
        psf=psf,
        l2_sgd=l2_norm(g_sgd),
        l2_psf=l2_norm(psf),
        l2_sgd_subset=subset_norm(g_sgd, w, subset_names),
        l2_psf_subset=subset_norm(psf, w, subset_names),
    )


def _apply_step(values, direction, eta, momentum, m_state):
    m_new = momentum * m_state + direction
    return values - eta * m_new, m_new


def step_sgd(w: ParamVector, g_sgd, eta, momentum=0.0, momentum_state=None):
    """Momentum SGD update; with momentum 0 this is w - eta * g."""
    if momentum_state is None:
        momentum_state = np.zeros_like(w.values)
    values, m_new = _apply_step(w.values, g_sgd, eta, momentum, momentum_state)
    return w.with_values(values), m_new


def step_sampling(w: ParamVector, triple: GradientTriple, eta, momentum=0.0,
                  momentum_state=None, cache: PSFCache | None = None,
                  iteration: int | None = None):
    """Full SAM update from a sampled triple; caches the correction for reuse."""
    if momentum_state is None:
        momentum_state = np.zeros_like(w.values)
    values, m_new = _apply_step(w.values, triple.g_sam, eta, momentum, momentum_state)
    if cache is not None:
        cache.psf = triple.psf
        cache.sampled_at = iteration
        cache.valid = True
        cache.l2_psf = triple.l2_psf
        cache.l2_psf_subset = triple.l2_psf_subset
    return w.with_values(values), m_new


def reuse_coefficient(gamma: float, staleness: int) -> float:
    """gamma ** staleness, treated as exactly zero below the underflow cutoff."""
    coef = gamma**staleness
    return coef if coef >= REUSE_UNDERFLOW else 0.0


def step_reuse(w: ParamVector, g_sgd, cache: PSFCache, i: int, eta, gamma,
               momentum=0.0, momentum_state=None):
    """Single-gradient update reusing the cached correction, decayed by staleness."""
    if not cache.valid:
        raise ContractViolationError("reuse step before any correction was sampled")
    if i <= cache.sampled_at:
        raise ContractViolationError("reuse step must come after the cached sample")
    if momentum_state is None:
        momentum_state = np.zeros_like(w.values)
    coef = reuse_coefficient(gamma, i - cache.sampled_at)
    if coef == 0.0:
        direction = g_sgd
    else:
        direction = g_sgd + coef * cache.psf
    values, m_new = _apply_step(w.values, direction, eta, momentum, momentum_state)
    return w.with_values(values), m_new


# ---------------------------------------------------------------------------
# training loops

@dataclass
class RunResult:
    records: list[MetricsRecord]
    w_final: ParamVector
    momentum_final: np.ndarray
    params_history: list[np.ndarray] | None = None
    sampler_state: SamplerState | None = None


class _Run:
    """Loop state and scaffolding: batch stream, eval cadence, record emission."""

    def __init__(self, spec, dataset: Dataset | None, opt: OptimizerConfig,
                 iterations, seed, batch_size, w0, momentum0, start_iteration,
                 schedule_total, collect_params, subset_names):
        if iterations < 1:
            raise ConfigurationError("need at least one iteration")
        self.spec = spec
        self.opt = opt
        self.iterations = iterations
        self.seed = seed
        self.start_iteration = start_iteration
        self.schedule_total = schedule_total or (start_iteration + iterations)
        self.w = w0 if w0 is not None else init_params(spec, seed)
        self.m = momentum0 if momentum0 is not None else np.zeros(self.w.size)
        if subset_names is None:
            subset_names = default_subset(self.w)
        elif not subset_names:
            raise ConfigurationError("subset_segments must name at least one segment")
        self.subset_idx = subset_index(self.w, subset_names)
        self.collect = collect_params
        self.history = [] if collect_params else None
        self.records = []
        self.evals = 0
        self.t0 = time.perf_counter()

        if dataset is not None:
            if batch_size is None:
                raise ConfigurationError("batch_size is required when a dataset is given")
            self.train, self.test = train_test_split(dataset)
            self.batch_size = batch_size
            self.bpe = batches_per_epoch(self.train.n, batch_size)
            self._epoch = -1
            self._batches = None
            self.test_batch = Batch(self.test.inputs, self.test.targets,
                                    np.arange(self.test.n))
        else:
            self.train = self.test = None
            self.bpe = 1

    def batch_at(self, t):
        if self.train is None:
            return None, 0
        epoch = (t - 1) // self.bpe
        if epoch != self._epoch:
            self._batches = make_batches(self.train, self.batch_size, self.seed, epoch)
            self._epoch = epoch
        return self._batches[(t - 1) % self.bpe], epoch

    def eta_at(self, t):
        return learning_rate(self.opt, t, self.schedule_total)

    def guard(self, t, fn, *args):
        """Call fn, attaching iteration context to a numeric failure."""
        try:
            return fn(*args)
        except NumericError as err:
            out = err if err.iteration is not None else NumericError(str(err), iteration=t)
            out.partial_records = self.records  # lets the harness flush a partial trace
            if out is err:
                raise
            raise out from err

    def grad(self, t, batch):
        loss, g = self.guard(t, eval_grad, self.spec, self.w, batch)
        self.evals += 1
        return loss, g

    def second_grad(self, t, batch, g_sgd):
        g_sam = self.guard(t, _second_grad, self.spec, self.w, batch, self.opt.rho, g_sgd)
        self.evals += 1
        return g_sam

    def budget_spent(self):
        """True once one more gradient evaluation would exceed the budget."""
        budget = self.opt.grad_eval_budget
        return budget is not None and self.evals >= budget

    def emit(self, t, epoch, loss, l2_sgd, l2_sgd_subset, sampled, **extra):
        is_epoch_end = self.train is not None and t % self.bpe == 0
        eval_loss_v = eval_acc = None
        if is_epoch_end and self.spec.kind == "mlp_classifier":
            eval_loss_v = eval_loss(self.spec, self.w, self.test_batch)
            eval_acc = mlp_accuracy(self.spec, self.w, self.test.inputs, self.test.targets)
        self.records.append(MetricsRecord(
            iteration=t,
            epoch=epoch,
            train_loss=loss,
            l2_sgd=l2_sgd,
            l2_sgd_subset=l2_sgd_subset,
            sampled=sampled,
            cumulative_grad_evals=self.evals,
            wall_clock_seconds=time.perf_counter() - self.t0,
            eval_loss=eval_loss_v,
            eval_accuracy=eval_acc,
            **extra,
        ))
        if self.collect:
            self.history.append(self.w.values.copy())


def _train(run: _Run, samples_at, sampler_config: SamplerConfig | None = None) -> RunResult:
    """The one training loop; the runners differ only in its sampling policy.

    Every iteration evaluates the plain gradient. ``samples_at(i)`` says
    whether iteration i (1-based within this call) also evaluates the
    perturbed gradient and takes the full SAM step; other iterations take the
    plain SGD step. With a sampler config the adaptive controller decides
    instead, non-sampled iterations reuse the cached correction with gamma
    decay, and the sampling rate is re-estimated at the end of every
    N-iteration window after warmup.

    An iteration whose second evaluation would exceed ``grad_eval_budget``
    takes its one-evaluation step instead (reuse when a correction is cached,
    plain SGD otherwise), and the run ends there.
    """
    opt, cfg, subset_idx = run.opt, sampler_config, run.subset_idx
    state = cache = None
    if cfg is not None:
        state = init_sampler(cfg, run.seed)
        cache = PSFCache()
    for i in range(1, run.iterations + 1):
        t = run.start_iteration + i
        batch, epoch = run.batch_at(t)
        eta = run.eta_at(t)
        loss, g_sgd = run.grad(t, batch)
        l2_sgd = l2_norm(g_sgd)
        l2_sgd_subset = l2_norm(g_sgd[subset_idx])
        row = {}
        if cfg is None:
            wants_sample = samples_at(i)
        else:
            wants_sample = should_sample(state, cfg, t)
            row.update(p=state.p, s=state.s)
        cut = wants_sample and run.budget_spent()
        sampled = wants_sample and not cut
        if sampled:
            g_sam = run.second_grad(t, batch, g_sgd)
            psf = g_sam - g_sgd
            triple = GradientTriple(g_sgd, g_sam, psf, l2_sgd, l2_norm(psf),
                                    l2_sgd_subset, l2_norm(psf[subset_idx]))
            if cfg is not None:
                record_sample(state, cfg, triple.l2_psf_subset, l2_sgd_subset)
                row.update(v=state.last_v, r=state.last_r, v_fallback=state.last_v_fallback)
            run.w, run.m = run.guard(t, step_sampling, run.w, triple, eta,
                                     opt.momentum, run.m, cache, t)
            row.update(l2_psf=triple.l2_psf, psf_stale=False,
                       l2_psf_subset=triple.l2_psf_subset, dot_sgd_psf=float(g_sgd @ psf))
        elif cache is not None and (cache.valid or not cut):
            # an empty cache outside a budget cut is a broken contract: step_reuse raises
            run.w, run.m = run.guard(t, step_reuse, run.w, g_sgd, cache, t, eta,
                                     opt.gamma, opt.momentum, run.m)
            # reuse rows log the undecayed cached correction
            row.update(l2_psf=cache.l2_psf, psf_stale=True,
                       l2_psf_subset=cache.l2_psf_subset,
                       dot_sgd_psf=float(g_sgd @ cache.psf))
        else:
            run.w, run.m = run.guard(t, step_sgd, run.w, g_sgd, eta, opt.momentum, run.m)
        if cfg is not None:
            if t == cfg.i_start:
                begin_windowing(state)
            elif t > cfg.i_start and state.window_iter == cfg.n_window:
                update_rate(state, cfg)
            row.update(c_var=state.last_c_var, c_norm=state.last_c_norm)
        run.emit(t, epoch, loss, l2_sgd, l2_sgd_subset, sampled, **row)
        if run.budget_spent():
            break
    return RunResult(run.records, run.w, run.m, run.history, state)


def run_sgd(spec, dataset, opt: OptimizerConfig, iterations: int, seed: int,
            batch_size=None, w0=None, momentum0=None, start_iteration=0,
            schedule_total=None, collect_params=False):
    return _train(_Run(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                       start_iteration, schedule_total, collect_params, None),
                  lambda i: False)


def run_sam(spec, dataset, opt: OptimizerConfig, iterations: int, seed: int,
            batch_size=None, w0=None, momentum0=None, start_iteration=0,
            schedule_total=None, collect_params=False, subset_names=None):
    return _train(_Run(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                       start_iteration, schedule_total, collect_params, subset_names),
                  lambda i: True)


def run_sam_k(spec, dataset, opt: OptimizerConfig, k: int, iterations: int,
              seed: int, batch_size=None, w0=None, momentum0=None,
              start_iteration=0, schedule_total=None, collect_params=False,
              subset_names=None):
    """SAM every k-th iteration (1-based), plain SGD otherwise; k=1 is SAM."""
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    return _train(_Run(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                       start_iteration, schedule_total, collect_params, subset_names),
                  lambda i: i % k == 0)


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
    return _train(_Run(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                       start_iteration, schedule_total, collect_params,
                       sampler_config.subset_segments), None, sampler_config)
