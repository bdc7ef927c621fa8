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
from .objectives import (eval_grad, eval_heldout, eval_loss, init_params, mlp_accuracy,
                         param_segments, screen_gradient)
from .params import (ParamVector, _zeros, default_subset, l2_norm, require_finite, subset_norm,
                     subset_selector)
# record_sample is imported for perfbench/tracer.py too; the loop notes samples itself
from .sampler import (Noted, SamplerConfig, SamplerState, begin_windowing, check_vsam_warmup,
                      init_sampler, record_sample, settle, should_sample, sync_draws,
                      update_rate)

LR_SCHEDULES = ("constant", "cosine", "inverse_t")

DEGENERATE_GRAD_NORM = 1e-12
REUSE_UNDERFLOW = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Step size, SAM radius, reuse decay, momentum, schedule and evaluation budget."""

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
    """The last sampled correction, the iteration it was sampled at and its norms."""

    psf: np.ndarray | None = None       # None until a correction is sampled
    sampled_at: int = -1
    l2_psf: float | None = None         # norms of psf, stored when it is sampled
    l2_psf_subset: float | None = None


def learning_rates(opt: OptimizerConfig, first: int, total: int):
    """Learning rates at 1-based iterations first, first + 1, ... of a run planned for `total`."""
    eta0 = opt.eta0
    if opt.lr_schedule == "constant":
        return repeat(eta0)
    if opt.lr_schedule == "inverse_t":
        return (eta0 / t for t in count(first))
    return (0.5 * eta0 * (1.0 + math.cos(math.pi * (t - 1) / total)) for t in count(first))


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
    return ParamVector(values), m


def step_sgd(w: ParamVector, g_sgd, eta, momentum=0.0, momentum_state=None):
    """Momentum SGD update; with momentum 0 this is w - eta * g."""
    return _step(w, g_sgd, eta, momentum, momentum_state)


def step_sampling(w: ParamVector, triple, eta, momentum=0.0,
                  momentum_state=None, cache: PSFCache | None = None,
                  iteration: int | None = None):
    """Full SAM update from one SAM step's ``triple`` (``g_sam``, ``psf``, ``l2_psf``,
    ``l2_psf_subset``); caches the correction for reuse."""
    if cache is not None:
        cache.psf, cache.sampled_at = triple.psf, iteration
        cache.l2_psf, cache.l2_psf_subset = triple.l2_psf, triple.l2_psf_subset
    return _step(w, triple.g_sam, eta, momentum, momentum_state)


def reuse_coefficient(gamma: float, staleness: int) -> float:
    """gamma ** staleness, treated as exactly zero below the underflow cutoff."""
    coef = gamma**staleness
    return coef if coef >= REUSE_UNDERFLOW else 0.0


def step_reuse(w: ParamVector, g_sgd, cache: PSFCache, i: int, eta, gamma,
               momentum=0.0, momentum_state=None):
    """Single-gradient update along g + gamma**staleness * the cached correction at i.

    The training loop takes the same step inline, with the same checks.
    """
    if cache.psf is None:
        raise ContractViolationError("reuse step before any correction was sampled")
    if i <= cache.sampled_at:
        raise ContractViolationError("reuse step must come after the cached sample")
    coef = reuse_coefficient(gamma, i - cache.sampled_at)
    direction = g_sgd if coef == 0.0 else g_sgd + coef * cache.psf
    return _step(w, direction, eta, momentum, momentum_state)


# ---------------------------------------------------------------------------
# training loops

@dataclass
class RunResult:
    """A training run's records, final weights and momentum, and what it collected."""

    records: list[MetricsRecord]
    w_final: ParamVector
    momentum_final: np.ndarray
    params_history: list[np.ndarray] | None = None
    sampler_state: SamplerState | None = None


def _batch_stream(spec, train: Dataset, batch_size, seed, bpe, first_t):
    """(batch, epoch) of each iteration from ``first_t`` on, one epoch's batches at a time.

    An MLP's epoch is cut with its class count, so ``make_batches`` checks and
    indexes its targets in the same pass; the index and mask live on the
    epoch's batches and go with them.
    """
    n_classes = spec.layer_sizes[-1] if spec.kind == "mlp_classifier" else None
    t = first_t
    while True:
        epoch = (t - 1) // bpe
        for batch in make_batches(train, batch_size, seed, epoch, n_classes)[(t - 1) % bpe:]:
            yield batch, epoch
            t += 1


def _train(spec, dataset: Dataset | None, opt: OptimizerConfig, iterations, seed, batch_size,
           w0, momentum0, start_iteration, schedule_total, collect_params, samples_at,
           cfg: SamplerConfig | None = None) -> RunResult:
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
    as a 0-d array, the finiteness screen's cached zero vector and what
    picks the subset norms' segments out of a vector. The subset is the
    sampler config's ``subset_segments``, or else ``default_subset``, in the
    spec's layout (``param_segments``), so it is the same whatever built
    ``w0``. The run owns its float64 buffers, updated in place: the weights
    and the momentum, copies of ``w0`` and ``momentum0`` made at entry (so neither
    is ever written to), the perturbed point w + e, eta * m, and each
    iteration's eta and reuse coefficient (0-d). A reuse row's direction,
    ``g + coef * psf``, is a new array, which costs less than ``out=`` here.
    A step is m = momentum * m + direction, then weights -= eta * m. Every
    gradient and held-out evaluation writes its intermediates into the
    buffers of the spec's plan, which all runs on the spec share. The loop checks
    each gradient, perturbed point and new weight vector for finiteness
    once, with numpy's floating-point warnings off: w + e and the new weights
    with ``require_finite``, and g and g_sam (from ``eval_grad(...,
    screen=False)``) with the squared norms the row logs. A finite
    ``g.dot(g)`` proves g finite, and then a finite ``psf.dot(psf)`` proves
    g_sam finite; only a sum that is not finite has ``screen_gradient`` read
    g or g_sam again, and one that passes logs its norm as inf. A failing
    g_sam raises before its sample is noted. The result's ``w_final``
    and ``momentum_final`` are the run's buffers, which no later run
    touches. A NumericError leaves with its iteration and the records so far
    (``partial_records``), so that the harness can flush a partial trace.

    A vSAM row costs one ``should_sample`` call and little else. p and s are
    loop values: a row logs the pair its decision saw, and they are refreshed
    after the row whose step closes a window (that row logs its own rate
    update's c_var and c_norm). The warmup and each window end where t
    reaches the next boundary. A sample is noted without a call: its two
    subset norms go to a ``sampler.Noted``, the window's sample count goes
    up, and the correction becomes the cached one, which reuse rows decay
    inline with ``step_reuse``'s checks. Each rate update settles the noted
    norms (``settle`` computes their sliced variances). A sampled row gets
    its ``r``, ``v_fallback`` and ``v`` when the run stops: however it ends,
    a NumericError included, the loop settles the rest, syncs the sampler's
    generator to where one draw per Bernoulli decision leaves it
    (``sync_draws``) and hands each sample's values to its row.
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
    w_pert, eta_m = np.zeros((2, w0.size))
    zeros = _zeros(w0.size)
    segments = param_segments(spec)
    subset_names = None if cfg is None else cfg.subset_segments
    subset = subset_selector(segments, subset_names or default_subset(segments))
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
    state = p = s = c_var = c_norm = None
    # the cached correction, the iteration it was sampled at and its norms
    cached, sampled_at, cached_l2, cached_l2_subset = None, -1, None, None
    boundary = 0  # the iteration that ends the warmup or a window; t never equals 0
    if cfg is not None:
        state, noted = init_sampler(cfg, seed), Noted()
        p, s, i_start, n_window = state.p, state.s, cfg.i_start, cfg.n_window
        note_norm, note_sgd_norm = noted.norms.append, noted.sgd_norms.append
        boundary = i_start or n_window
    evals, t = 0, start_iteration
    with np.errstate(all="ignore"):
        try:
            for (t, (batch, epoch)), eta in zip(
                    enumerate(islice(batches, iterations), start_iteration + 1), etas):
                loss, g_sgd = eval_grad(spec, values, batch, screen=False)
                evals += 1
                # l2_norm's bits; a finite square sum proves every entry finite
                sq = float(g_sgd.dot(g_sgd))
                if not math.isfinite(sq):
                    screen_gradient(spec, g_sgd, zeros)
                l2_sgd = math.sqrt(sq)
                l2_sgd_subset = l2_sgd if subset is None else l2_norm(g_sgd[subset])
                if cfg is None:
                    wants_sample = samples_at(t)
                else:
                    wants_sample = should_sample(state, cfg, t)
                cut = wants_sample and budget is not None and evals >= budget
                sampled = wants_sample and not cut
                if sampled:
                    np.add(values, perturbation(g_sgd, rho, l2_sgd), out=w_pert)
                    require_finite(w_pert, zeros)
                    _, g_sam = eval_grad(spec, w_pert, batch, screen=False)
                    evals += 1
                    psf = g_sam - g_sgd
                    # g_sgd is finite, so a finite square sum of psf proves g_sam finite
                    sq = float(psf.dot(psf))
                    if not math.isfinite(sq):
                        screen_gradient(spec, g_sam, zeros)
                    l2_psf = math.sqrt(sq)
                    l2_psf_subset = l2_psf if subset is None else l2_norm(psf[subset])
                    if cfg is not None:
                        note_norm(l2_psf_subset)
                        note_sgd_norm(l2_sgd_subset)
                        state.window_samples += 1
                        cached, sampled_at = psf, t
                        cached_l2, cached_l2_subset = l2_psf, l2_psf_subset
                    direction, psf_stale, dot_sgd_psf = g_sam, False, float(g_sgd.dot(psf))
                elif cfg is not None and (cached is not None or not cut):
                    # step_reuse's checks and messages, and reuse_coefficient's cutoff
                    if cached is None:
                        raise ContractViolationError("reuse step before any correction was sampled")
                    if t <= sampled_at:
                        raise ContractViolationError("reuse step must come after the cached sample")
                    coef_now = gamma**(t - sampled_at)
                    direction = g_sgd
                    if coef_now >= REUSE_UNDERFLOW:
                        coef[()] = coef_now
                        direction = g_sgd + coef * cached
                    # reuse rows log the undecayed cached correction
                    l2_psf, psf_stale, l2_psf_subset = cached_l2, True, cached_l2_subset
                    dot_sgd_psf = float(g_sgd.dot(cached))
                else:
                    direction = g_sgd
                    l2_psf = psf_stale = l2_psf_subset = dot_sgd_psf = None
                eta_now[()] = eta
                _apply_step(values, direction, eta_now, momentum, m, eta_m, zeros)
                eval_loss_v = eval_acc = None
                if test_batch is not None and t % bpe == 0:
                    eval_loss_v, eval_acc = eval_heldout(spec, values, test_batch)
                # positional, in the file's column order; a sample's v, r and v_fallback
                # are filled in when the run stops
                records.append(MetricsRecord(
                    t, epoch, loss, eval_loss_v, eval_acc, l2_sgd, l2_psf, psf_stale,
                    l2_sgd_subset, l2_psf_subset, sampled, p, s, None, None, c_var, c_norm,
                    None, dot_sgd_psf, evals, time.perf_counter() - t0))
                if history is not None:
                    history.append(values.copy())
                if t == boundary:
                    if t == i_start:
                        begin_windowing(state)
                    else:
                        c_var, c_norm = update_rate(state, cfg, noted)
                        # this row logs its own update, and the p and s its decision used
                        records[-1].c_var, records[-1].c_norm = c_var, c_norm
                        p, s = state.p, state.s
                    boundary += n_window
                if budget is not None and evals >= budget:
                    break
        except NumericError as err:
            located = NumericError(str(err), iteration=t)
            located.partial_records = records
            raise located from err
        finally:
            if state is not None:
                settle(state, cfg, noted)
                sync_draws(state)
                # every sampled row noted a sample; one noted in an iteration that raised
                # before its row was built comes last, and zip drops it
                rows = (row for row in records if row.sampled)
                for row, v, r, v_fallback in zip(rows, noted.variances, noted.ratios,
                                                 noted.fallbacks):
                    row.v, row.r, row.v_fallback = v, r, v_fallback
    return RunResult(records, ParamVector(values), m, history, state)


def run_sgd(spec, dataset, opt: OptimizerConfig, iterations: int, seed: int,
            batch_size=None, w0=None, momentum0=None, start_iteration=0,
            schedule_total=None, collect_params=False):
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, lambda t: False)


def run_sam(spec, dataset, opt: OptimizerConfig, iterations: int, seed: int,
            batch_size=None, w0=None, momentum0=None, start_iteration=0,
            schedule_total=None, collect_params=False):
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, lambda t: True)


def run_sam_k(spec, dataset, opt: OptimizerConfig, k: int, iterations: int,
              seed: int, batch_size=None, w0=None, momentum0=None,
              start_iteration=0, schedule_total=None, collect_params=False):
    """SAM where t % k == 0 (t 1-based over the whole run), plain SGD otherwise; k=1 is SAM."""
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, lambda t: t % k == 0)


def run_vsam(spec, dataset, opt: OptimizerConfig, sampler_config: SamplerConfig,
             iterations: int, seed: int, batch_size=None, w0=None, momentum0=None,
             start_iteration=0, schedule_total=None, collect_params=False):
    """Adaptive-sampling SAM.

    Warmup iterations and sampled iterations take the full SAM step; other
    iterations reuse the cached correction with gamma decay. Once the warmup
    ends, the sampling rate is re-estimated at the end of every N-iteration
    window.
    """
    check_vsam_warmup(sampler_config)
    if start_iteration > 0:
        # the sampler state and the cached correction are not carried across calls yet
        raise ConfigurationError("a vSAM run cannot be resumed: start_iteration must be 0")
    return _train(spec, dataset, opt, iterations, seed, batch_size, w0, momentum0,
                  start_iteration, schedule_total, collect_params, None, sampler_config)
