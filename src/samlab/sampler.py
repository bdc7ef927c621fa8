"""Adaptive sampling-rate controller.

The controller watches the norm of the sharpness correction (the difference
between the perturbed-point gradient and the plain gradient) on sampled
iterations. Two statistics drive the rate: the sliced variance of the last N
sampled norms, and the ratio of correction norm to plain-gradient norm. The
per-window sample budget s is scaled by the averaged relative change of both
series, and the per-iteration Bernoulli probability is p = s / N.

All statistics here are computed with plain Python floats or numpy's
elementwise operations, with strict left-to-right summation. That makes the
incremental state bit-identical to a from-scratch replay of the recorded
history, which the test suite checks exactly rather than within a tolerance.

A sample is folded in in two steps. ``note_sample`` runs once per sample and
does the cheap part: the norm joins the buffer, the norm ratio joins its
history and the window's sample count goes up. ``settle`` computes the
sliced variance of every sample noted since the last settle and trims the
buffers back to the window; only ``update_rate`` reads the histories. The
training loop settles before each rate update, whenever N samples are
pending (which bounds the buffer), and once when it stops, however it stops;
it keeps every variance ``settle`` returns and hands them to the sampled
rows, in order, only then. ``record_sample`` is the two in a row. Each call
returns what its caller logs (ratios, variances, change rates); the state
keeps only what later calls need.

``settle`` evaluates the windows of all pending samples as one block: the
windows are sorted as rows of one array and split into their M slices, and
each slice's sum and sum of squared deviations are reduced along an axis on
which numpy adds one value at a time, strictly left to right. A window that
holds fewer values than slices, as a run's first M - 1 do, is one slice, so
its statistic is the population variance of its values. ``sliced_variance``
is the same routine on one window. Between settles the norm buffer holds the
pending values past the window too, while the variance history grows only at
a settle, so ``len(gnorm_buffer) - len(v_history)`` is the number of pending
samples. A settled state holds the same fields and values as one that was
settled after every sample.

``should_sample`` takes its Bernoulli uniforms from a block of
``DRAW_BLOCK`` drawn with one ``random(DRAW_BLOCK)`` call, which gives the
same doubles as that many ``random()`` calls. The state keeps the block, a
cursor into it and the generator's state from before the block;
``sync_draws`` restores that state and advances the generator by the cursor
(``random()`` uses one 64-bit output per double), which leaves it exactly
where one ``random()`` per decision would have. The training loop syncs
whenever a run returns or raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError, check_list, check_number


@dataclass
class SamplerConfig:
    n_window: int = 50          # window length N: buffer capacity and rate-update cadence
    m_slices: int = 5           # number of variance slices M
    alpha: float = 0.13         # gain on the averaged change rates
    s1: float = 25.0            # initial per-window sample budget
    i_start: int = 250          # warmup iterations with unconditional sampling
    p_max: float = 0.8          # hard ceiling on the sampling rate
    subset_segments: list[str] | None = None  # None: last two parameter segments
    eps: float = 1e-12          # division guard
    force: str | None = None    # None | "always" | "never" (post-warmup override)

    def __post_init__(self):
        for name in ("n_window", "m_slices", "i_start"):
            check_number(name, getattr(self, name), int)
        for name in ("alpha", "s1", "p_max", "eps"):
            check_number(name, getattr(self, name), float)
        if self.subset_segments is not None:
            check_list("subset_segments", self.subset_segments, str)
        if self.m_slices < 2:
            raise ConfigurationError("need at least 2 variance slices")
        if self.n_window % self.m_slices != 0:
            raise ConfigurationError("window length must be divisible by the slice count")
        if not (0.0 < self.p_max <= 1.0):
            raise ConfigurationError("p_max must be in (0, 1]")
        if not (1.0 <= self.s1 <= self.p_max * self.n_window):
            raise ConfigurationError("s1 must lie in [1, p_max * N]")
        if self.i_start < 0:
            raise ConfigurationError("i_start must be nonnegative")
        if self.force not in (None, "always", "never"):
            raise ConfigurationError("force must be None, 'always', or 'never'")
        if self.subset_segments is not None and not self.subset_segments:
            raise ConfigurationError("subset_segments must name at least one segment")

    @functools.cached_property
    def sample_cap(self) -> int:
        """Most samples allowed inside one window: floor(p_max * N)."""
        return math.floor(self.p_max * self.n_window)


DRAW_BLOCK = 64  # Bernoulli uniforms drawn at a time


@dataclass
class SamplerState:
    gnorm_buffer: list[float] = field(default_factory=list)  # sampled correction norms
    v_history: list[float] = field(default_factory=list)     # sliced variances
    r_history: list[float] = field(default_factory=list)     # norm ratios
    s: float = 0.0
    p: float = 0.0
    window_iter: int = 0
    window_samples: int = 0
    rng_stream: np.random.Generator | None = None
    draws: list[float] = field(default_factory=list)  # block of Bernoulli uniforms
    cursor: int = 0                 # uniforms of the block used so far
    draws_from: dict | None = None  # rng_stream's state before the block was drawn


def init_sampler(config: SamplerConfig, seed: int) -> SamplerState:
    return SamplerState(
        s=float(config.s1),
        p=min(float(config.s1) / config.n_window, config.p_max),
        rng_stream=np.random.default_rng([seed, 0x5A]),
    )


def sliced_variance(values, m_slices: int) -> float:
    """Mean of per-slice population variances of the ascending-sorted values.

    Sorting first makes the statistic robust to isolated extreme norms: an
    outlier inflates only its own slice. With fewer values than slices the
    population variance of everything is returned instead. This is
    ``settle``'s block routine on one window.
    """
    if len(values) == 0:
        raise ConfigurationError("sliced_variance needs at least one value")
    # with one slice the block's one window is reduced along a contiguous axis,
    # which numpy sums pairwise rather than left to right
    if m_slices < 2:
        raise ConfigurationError("need at least 2 variance slices")
    values = list(map(float, values))
    return _block_sliced_variance(values, len(values) - 1, len(values), m_slices)[0]


def change_rate_series(history, eps: float) -> float:
    """Mean consecutive relative change, (h[i] - h[i-1]) / h[i-1].

    Terms whose denominator is smaller than eps in magnitude contribute zero
    but still count toward the mean's denominator. Histories shorter than two
    carry no information and yield zero.
    """
    n = len(history)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(1, n):
        prev = history[i - 1]
        if abs(prev) >= eps:
            total += (history[i] - prev) / prev
    return total / (n - 1)


@functools.lru_cache(maxsize=256)
def _window_layout(first, size, n_window, m_slices):
    """Read-only index arrays that lay the windows of samples first..size-1 out as slices.

    Sample j's window is ``values[max(0, j + 1 - n_window):j + 1]``. Returns
    (rows, gather, widths, pads, divisors):

    - ``rows`` picks each window into a row of n_window entries. A window
      still filling is shorter; its row's other entries pick index ``size``,
      where the caller puts +inf, so that they sort last.
    - ``gather`` picks the sorted rows, flattened, into a C-contiguous
      (slice position, window, slice) array. A window of at least m_slices
      values is split into m_slices slices, the first ``length % m_slices``
      one longer; a shorter window is one slice, and its other slices are
      empty.
    - ``widths`` holds each slice's width, as floats, (window, slice); an
      empty slice counts as 1 wide.
    - ``pads`` marks the positions past a slice's width.
    - ``divisors`` holds each window's slice count, as floats.
    """
    ends = np.arange(first, size) + 1
    lengths = np.minimum(ends, n_window)[:, None]
    offsets = np.arange(n_window)
    rows = np.where(offsets < lengths, ends[:, None] - lengths + offsets, size)
    counts = np.where(lengths < m_slices, 1, m_slices)
    base, extra = np.divmod(lengths, counts)
    slice_no = np.arange(m_slices)
    widths = np.where(slice_no < counts, base + (slice_no < extra), 0)
    starts = slice_no * base + np.minimum(slice_no, extra)
    position = np.arange(widths.max())[:, None, None]
    gather = (np.arange(ends.size)[:, None] * n_window
              + np.minimum(starts + position, n_window - 1))
    layout = (rows, gather, np.maximum(widths, 1).astype(float), position >= widths,
              counts[:, 0].astype(float))
    for array in layout:
        array.flags.writeable = False
    return layout


def _block_sliced_variance(values, first, n_window, m_slices):
    """Sliced variance of the windows of samples first..len(values)-1, as a list.

    Each window is sorted as a row of one array. The slices' sums add each
    slice's values strictly left to right, so every result equals a scalar
    loop's bit for bit. Padding past a slice's width counts as +0.0, which
    changes no sum. A scalar loop starts its sums from 0.0 where these start
    from the first value; the two differ only when every value so far is
    -0.0, and then every squared deviation is +0.0 either way.
    """
    rows, gather, widths, pads, divisors = _window_layout(
        first, len(values), n_window, m_slices)
    ordered = np.array(values + [math.inf])[rows]
    ordered.sort(axis=1)
    # (slice position, window, slice), C-contiguous. Reducing along axis 0, the
    # slowest axis in memory, adds one value at a time to each sum: numpy sums
    # pairwise only along the fastest axis.
    slices = ordered.ravel()[gather]
    with np.errstate(all="ignore"):  # inf - inf is NaN here, silently, as in Python
        np.copyto(slices, 0.0, where=pads)
        mean = np.add.reduce(slices, axis=0)
        mean /= widths
        slices -= mean
        np.copyto(slices, 0.0, where=pads)
        np.multiply(slices, slices, out=slices)
        per_slice = np.add.reduce(slices, axis=0)
        per_slice /= widths
        # the slices of a window lie along the fastest axis: accumulate keeps their order
        variances = np.add.accumulate(per_slice, axis=1)[:, -1]
        variances /= divisors
    return variances.tolist()


def note_sample(state: SamplerState, config: SamplerConfig,
                l2_psf_subset: float, l2_sgd_subset: float) -> tuple[float, bool]:
    """Fold one sampled iteration's norms in; its sliced variance waits for ``settle``.

    Returns the norm ratio and whether the sample's window holds fewer values
    than slices (its variance is then the plain population variance).
    """
    value, sgd = float(l2_psf_subset), float(l2_sgd_subset)
    if value != value:
        # NaN has no place in a sorted window
        raise NumericError("sampled correction norm is NaN")
    if value < 0.0 or sgd < 0.0:
        raise ConfigurationError("norms must be nonnegative")
    r = value / max(sgd, config.eps)
    buffer = state.gnorm_buffer
    buffer.append(value)
    state.r_history.append(r)  # trimmed to the window at the next settle
    state.window_samples += 1
    # pending values can make the buffer longer than the window, but since M <= N
    # it is shorter than M exactly when the window is
    return r, len(buffer) < config.m_slices


def settle(state: SamplerState, config: SamplerConfig) -> list[float]:
    """Sliced variances of the samples noted since the last settle, oldest first.

    Afterwards the norm buffer and the ratio history hold their last N values
    again and the variances are in ``v_history``.
    """
    buffer, n = state.gnorm_buffer, config.n_window
    first = len(state.v_history)
    if first >= len(buffer):
        return []
    vs = _block_sliced_variance(buffer, first, n, config.m_slices)
    del buffer[:-n]
    del state.r_history[:-n]
    history = state.v_history
    history += vs
    del history[:-n]
    return vs


def record_sample(state: SamplerState, config: SamplerConfig,
                  l2_psf_subset: float, l2_sgd_subset: float) -> tuple[float, float, bool]:
    """Fold one sampled iteration's norms into the rolling statistics.

    Returns the sample's sliced variance, norm ratio and fallback flag.
    """
    r, v_fallback = note_sample(state, config, l2_psf_subset, l2_sgd_subset)
    return settle(state, config)[-1], r, v_fallback


def update_rate(state: SamplerState, config: SamplerConfig) -> tuple[float, float]:
    """End-of-window budget update: s *= 1 + alpha*(c_var + c_norm), clamped.

    The budget is kept inside [1, p_max * N] so the controller can neither
    die out nor exceed the sampling-rate ceiling; p follows as s / N. Samples
    noted since the last settle are settled first, since both change rates
    read the settled histories. Returns (c_var, c_norm).
    """
    settle(state, config)
    c_var = change_rate_series(state.v_history, config.eps)
    c_norm = change_rate_series(state.r_history, config.eps)
    s = state.s * (1.0 + config.alpha * c_var + config.alpha * c_norm)
    s = min(max(s, 1.0), config.p_max * config.n_window)
    state.s = s
    # the extra min guards the one-ulp case where s/N rounds above p_max
    state.p = min(s / config.n_window, config.p_max)
    state.window_iter = 0
    state.window_samples = 0
    return c_var, c_norm


def should_sample(state: SamplerState, config: SamplerConfig, i: int) -> bool:
    """Sampling decision for iteration i, 1-based over the whole run.

    Warmup iterations always sample and leave the window clock untouched;
    the clock starts once the adaptive phase begins. After warmup the window
    sample cap blocks further sampling without consuming randomness, and a
    'force' override short-circuits the Bernoulli draw entirely. The draw is
    the next uniform of the state's block (see ``sync_draws``).
    """
    if i <= config.i_start:
        return True
    state.window_iter += 1
    if config.force == "always":
        return True
    if config.force == "never":
        return False
    if state.window_samples >= config.sample_cap:
        return False
    k = state.cursor
    if k == len(state.draws):
        stream = state.rng_stream
        state.draws_from = stream.bit_generator.state
        state.draws = stream.random(DRAW_BLOCK).tolist()
        k = 0
    state.cursor = k + 1
    return state.draws[k] < state.p


def sync_draws(state: SamplerState) -> None:
    """Leave rng_stream where one ``random()`` per Bernoulli draw would have, and drop the block.

    The generator is put back to its state before the block, then advanced
    by the uniforms used, one 64-bit output each.
    """
    if state.draws_from is not None:
        bit_generator = state.rng_stream.bit_generator
        bit_generator.state = state.draws_from
        bit_generator.advance(state.cursor)
        state.draws, state.cursor, state.draws_from = [], 0, None


def begin_windowing(state: SamplerState) -> None:
    """Reset window counters when warmup ends and adaptive sampling starts."""
    state.window_iter = 0
    state.window_samples = 0
