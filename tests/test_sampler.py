import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from samlab.errors import ConfigurationError, NumericError
from samlab.sampler import (Noted, SamplerConfig, SamplerState, begin_windowing,
                            change_rate_series, init_sampler, record_sample, settle,
                            should_sample, sync_draws, update_rate)

from helpers import (_oracle_sliced_variance, float_bits, per_call_should_sample,
                     replay_sampler, sampler_state_bits, sliced_variance)


def _cfg(**kwargs):
    base = dict(n_window=10, m_slices=2, alpha=0.13, s1=5, i_start=10)
    base.update(kwargs)
    return SamplerConfig(**base)


# ---------------------------------------------------------------------------
# sliced variance

def test_sliced_variance_worked_example():
    assert sliced_variance([3, 1, 2, 5, 4, 9, 7, 8, 6, 10], 2) == 2.0


def test_sliced_variance_all_equal_is_zero():
    assert sliced_variance([4.2] * 12, 3) == 0.0


def test_sliced_variance_rejects_a_single_slice():
    # one slice would be summed pairwise, not left to right; SamplerConfig needs M >= 2
    with pytest.raises(ConfigurationError):
        sliced_variance([1.0, 2.0, 3.0, 4.0], 1)


def test_sliced_variance_fallback_below_slice_count():
    # fewer values than slices: population variance of everything
    assert sliced_variance([2.0, 4.0], 5) == 1.0
    assert sliced_variance([7.0], 5) == 0.0


def test_sliced_variance_validation():
    with pytest.raises(ConfigurationError):
        sliced_variance([], 2)
    with pytest.raises(ConfigurationError):
        sliced_variance([1.0], 0)


def test_sliced_variance_sorts_before_slicing():
    # outlier lands in the top slice regardless of arrival order
    a = sliced_variance([100.0, 1.0, 2.0, 3.0], 2)
    b = sliced_variance([1.0, 100.0, 3.0, 2.0], 2)
    assert a == b


# ---------------------------------------------------------------------------
# change rates and ratios

def test_change_rate_worked_example():
    assert change_rate_series([2.0, 3.0, 1.5], 1e-12) == 0.0


def test_change_rate_constant_history():
    assert change_rate_series([5.0, 5.0, 5.0, 5.0], 1e-12) == 0.0


def test_change_rate_guard_rule():
    # (0-1)/1 = -1, then a guarded zero term; mean over 2 terms = -0.5
    assert change_rate_series([1.0, 0.0, 1.0], 1e-12) == -0.5


def test_change_rate_short_history_is_zero():
    assert change_rate_series([], 1e-12) == 0.0
    assert change_rate_series([3.0], 1e-12) == 0.0


def test_norm_ratio_examples():
    # the ratios settle hands back, one block of three samples
    cfg = _cfg()
    state, noted = init_sampler(cfg, 0), Noted([2.0, 1.0, 0.0], [4.0, 0.0, 5.0])
    settle(state, cfg, noted)
    assert noted.ratios == state.r_history == [0.5, 1e12, 0.0]
    assert (noted.norms, noted.sgd_norms) == ([], [])


@pytest.mark.parametrize("norms, sgd_norms, error", [
    ([2.0, -1.0], [4.0, 1.0], ConfigurationError),
    ([2.0, 1.0], [4.0, -1.0], ConfigurationError),
    ([2.0, math.nan], [4.0, 1.0], NumericError),
])
def test_bad_norms_are_rejected_before_anything_is_folded(norms, sgd_norms, error):
    # a valid sample ahead of the bad one in the block is not folded in either
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    record_sample(state, cfg, 3.0, 6.0)
    before = sampler_state_bits(state)
    noted = Noted(list(norms), list(sgd_norms))
    with pytest.raises(error):
        settle(state, cfg, noted)
    assert sampler_state_bits(state) == before
    assert [float_bits(x) for x in noted.norms] == [float_bits(x) for x in norms]
    assert (noted.sgd_norms, noted.ratios, noted.fallbacks, noted.variances) == \
        (sgd_norms, [], [], [])


# ---------------------------------------------------------------------------
# state updates

def test_first_sample_populates_buffers():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    assert record_sample(state, cfg, 3.0, 6.0) == (0.0, 0.5, True)
    assert state.gnorm_buffer == [3.0]
    assert state.v_history == [0.0]  # degenerate single-value variance
    assert state.r_history == [0.5]
    assert state.window_samples == 1


def test_buffers_evict_oldest_at_capacity():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    for k in range(cfg.n_window + 3):
        record_sample(state, cfg, float(k), 1.0)
    assert len(state.gnorm_buffer) == cfg.n_window
    assert state.gnorm_buffer[0] == 3.0
    assert len(state.v_history) == cfg.n_window
    assert len(state.r_history) == cfg.n_window


def test_identical_samples_give_zero_rates():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    for _ in range(cfg.n_window):
        record_sample(state, cfg, 2.5, 5.0)
    assert all(v == 0.0 for v in state.v_history)
    s_before, p_before = state.s, state.p
    assert update_rate(state, cfg, Noted()) == (0.0, 0.0)
    assert (state.s, state.p) == (s_before, p_before)


def test_update_rate_worked_example():
    cfg = SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=10, i_start=50)
    state = init_sampler(cfg, 0)
    # histories engineered to give c_var = 0.1 and c_norm = -0.05 exactly
    state.v_history = [1.0, 1.1]
    state.r_history = [1.0, 0.95]
    update_rate(state, cfg, Noted())
    assert state.s == pytest.approx(10.065, abs=1e-12)
    assert state.p == pytest.approx(0.2013, abs=1e-12)


def test_update_rate_clamps_to_ceiling():
    cfg = SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=10, i_start=50,
                        p_max=0.8)
    state = init_sampler(cfg, 0)
    state.v_history = [1.0, 1000.0]
    state.r_history = [1.0, 1000.0]
    update_rate(state, cfg, Noted())
    assert state.s == 40.0
    assert state.p == 0.8


def test_update_rate_clamps_to_floor():
    cfg = _cfg(alpha=2.0)
    state = init_sampler(cfg, 0)
    state.v_history = [1.0, 0.0]  # c_var = -1
    state.r_history = [1.0, 0.0]  # c_norm = -1
    update_rate(state, cfg, Noted())  # raw update would go negative; the floor holds it
    assert state.s == 1.0
    assert state.p == 1.0 / cfg.n_window


def test_update_rate_resets_window_counters():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    record_sample(state, cfg, 1.0, 1.0)
    assert state.window_samples == 1
    update_rate(state, cfg, Noted())
    assert state.window_samples == 0


def test_monotone_response_in_variance_change():
    # with c_norm fixed, larger c_var must not decrease the new budget
    cfg = SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=10, i_start=50)
    previous = None
    for c_var in (-0.5, -0.1, 0.0, 0.1, 0.5):
        state = init_sampler(cfg, 0)
        state.v_history = [1.0, 1.0 + c_var]
        state.r_history = [1.0, 1.0]
        update_rate(state, cfg, Noted())
        if previous is not None:
            assert state.s > previous
        previous = state.s


# ---------------------------------------------------------------------------
# decisions

def test_warmup_always_samples():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    state.p = 0.0
    assert all(should_sample(state, cfg, i) for i in range(1, cfg.i_start + 1))
    # warmup leaves the window's count alone and draws nothing
    assert state.window_samples == 0
    assert (state.draws, state.cursor, state.draws_from) == ([], 0, None)


def test_zero_probability_never_fires_after_warmup():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    state.p = 0.0
    assert not any(should_sample(state, cfg, cfg.i_start + 1 + k) for k in range(50))


def test_force_overrides():
    cfg_on = _cfg(force="always")
    state = init_sampler(cfg_on, 0)
    state.p = 0.0
    assert should_sample(state, cfg_on, cfg_on.i_start + 1)
    cfg_off = _cfg(force="never")
    state = init_sampler(cfg_off, 0)
    state.p = 1.0
    assert not should_sample(state, cfg_off, cfg_off.i_start + 1)


def test_window_cap_blocks_sampling():
    cfg = _cfg(p_max=0.8)  # cap = floor(0.8*10) = 8
    state = init_sampler(cfg, 0)
    state.p = 1.0
    state.s = 8.0
    begin_windowing(state)
    fired = 0
    for k in range(cfg.n_window):
        if should_sample(state, cfg, cfg.i_start + 1 + k):
            fired += 1
            state.window_samples += 1  # the run loop counts each sample itself
    assert fired == cfg.sample_cap == 8


def test_decisions_deterministic_per_seed():
    cfg = _cfg()
    a = init_sampler(cfg, 123)
    b = init_sampler(cfg, 123)
    seq_a = [should_sample(a, cfg, cfg.i_start + 1 + k) for k in range(100)]
    seq_b = [should_sample(b, cfg, cfg.i_start + 1 + k) for k in range(100)]
    assert seq_a == seq_b
    c = init_sampler(cfg, 124)
    seq_c = [should_sample(c, cfg, cfg.i_start + 1 + k) for k in range(100)]
    assert seq_a != seq_c


@settings(deadline=None, max_examples=200)
@given(n_window=st.integers(1, 70).map(lambda k: 2 * k),
       p_max=st.sampled_from([0.5, 0.8, 1.0]),
       force=st.sampled_from([None, None, None, "always", "never"]),
       i_start=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
       rates=st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=1, max_size=8),
       iterations=st.integers(1, 600), syncs=st.sets(st.integers(1, 600), max_size=6))
def test_block_draws_match_per_call_draws(n_window, p_max, force, i_start, seed, rates,
                                          iterations, syncs):
    # the same decisions, and after every sync the same generator state, as one
    # random() per Bernoulli draw; p = 1.0 runs into the window cap
    cfg = SamplerConfig(n_window=n_window, m_slices=2, s1=1, i_start=i_start, p_max=p_max,
                        force=force)
    block, per_call = init_sampler(cfg, seed), init_sampler(cfg, seed)
    states = (block, per_call)
    windows = 0
    for i in range(1, iterations + 1):
        decision = should_sample(block, cfg, i)
        assert per_call_should_sample(per_call, cfg, i) == decision
        for state in states:
            state.window_samples += decision  # the run loop counts each sample itself
        if i == i_start:
            for state in states:
                begin_windowing(state)
        elif i > i_start and (i - i_start) % n_window == 0:
            windows += 1
            for state in states:
                state.window_samples = 0
                state.p = rates[windows % len(rates)]
        if i in syncs:
            sync_draws(block)
            assert block.rng_stream.bit_generator.state == per_call.rng_stream.bit_generator.state
    sync_draws(block)
    assert (block.draws, block.cursor, block.draws_from) == ([], 0, None)
    assert block.rng_stream.bit_generator.state == per_call.rng_stream.bit_generator.state


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=3)          # N not divisible by M
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=1)          # M too small
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=2, p_max=0.0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=2, p_max=1.5)
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=2, s1=9.5, p_max=0.8)  # s1 > p_max*N
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=2, s1=0.5)
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=2, force="sometimes")
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_window=10, m_slices=2, subset_segments=[])


@pytest.mark.parametrize("eps", [0.0, -1e-12])
def test_config_requires_a_positive_eps(eps):
    # eps guards the divisions of the norm ratio and the change rates
    with pytest.raises(ConfigurationError, match="eps must be positive"):
        SamplerConfig(n_window=10, m_slices=2, s1=4, eps=eps)


def test_defaults_match_documented_values():
    cfg = SamplerConfig()
    assert (cfg.n_window, cfg.m_slices, cfg.alpha) == (50, 5, 0.13)
    assert (cfg.s1, cfg.i_start, cfg.p_max) == (25.0, 250, 0.8)
    assert cfg.i_start == 5 * cfg.n_window


# ---------------------------------------------------------------------------
# incremental state equals brute-force replay (small version; the full
# 10^4-trace sweep lives in the acceptance suite)

def test_incremental_equals_replay_small():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.choice([4, 6, 8, 12]))
        m = int(rng.choice([2, n // 2]))
        p_max = float(rng.choice([0.5, 0.8, 1.0]))
        s1 = float(rng.integers(1, max(int(p_max * n), 1) + 1))
        alpha = float(rng.choice([0.0, 0.13, 2.0]))
        cfg = SamplerConfig(n_window=n, m_slices=m, alpha=alpha, s1=s1,
                            i_start=n, p_max=p_max)
        state = init_sampler(cfg, 0)
        events = []
        c_var = c_norm = None
        for _ in range(int(rng.integers(3, 40))):
            if rng.random() < 0.75:
                psf = 0.0 if rng.random() < 0.15 else float(rng.random() * 10)
                sgd = 0.0 if rng.random() < 0.15 else float(rng.random() * 5)
                record_sample(state, cfg, psf, sgd)
                events.append(("record", psf, sgd))
            else:
                c_var, c_norm = update_rate(state, cfg, Noted())
                events.append(("update",))
        expected = replay_sampler(events, n, m, alpha, s1, p_max, cfg.eps)
        assert state.gnorm_buffer == expected["gnorm_buffer"]
        assert state.v_history == expected["v_history"]
        assert state.r_history == expected["r_history"]
        assert state.s == expected["s"]
        assert state.p == expected["p"]
        assert state.window_samples == expected["window_samples"]
        assert c_var == expected["last_c_var"]
        assert c_norm == expected["last_c_norm"]


def test_record_sample_rejects_nan_norm():
    cfg = _cfg()
    state = init_sampler(cfg, 0)
    with pytest.raises(NumericError):
        record_sample(state, cfg, float("nan"), 1.0)


# ---------------------------------------------------------------------------
# noting samples and settling them as a block

_NORM_LISTS = st.one_of(
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.inf, 1.0, 2.0, 1e-300, 1e300]),
                       st.floats(min_value=1e-300, max_value=1e300)),
             min_size=1, max_size=150),
    # one magnitude with full mantissas, where the order of summation shows in the
    # last bits (drawn floats tend to be round numbers)
    st.lists(st.integers(1, 2**53).map(lambda k: k / 2**50), min_size=1, max_size=150),
)


_FULL_MANTISSAS = [(k * 2654435761 % 2**53 + 1) / 2**50 for k in range(150)]


@settings(deadline=None, max_examples=300)
@given(shape=st.sampled_from([(2, 2), (4, 2), (6, 2), (6, 3), (10, 2), (12, 3), (12, 4),
                              (20, 2), (50, 5)]),
       norms=_NORM_LISTS, settle_after=st.sets(st.integers(0, 149), max_size=20))
# blocks of one full window each, after the first N samples
@example(shape=(50, 5), norms=_FULL_MANTISSAS[:60], settle_after=set(range(49, 60)))
# a block of 100 full windows, more than N
@example(shape=(50, 5), norms=_FULL_MANTISSAS, settle_after={49})
def test_settled_blocks_equal_per_sample_evaluation(shape, norms, settle_after):
    # settling after a random stretch of samples, blocks of every size from one
    # window to more than N included, gives the same bits as evaluating each
    # sample's window on its own
    n, m = shape
    cfg = SamplerConfig(n_window=n, m_slices=m, s1=1, i_start=n)
    lazy, eager, noted = init_sampler(cfg, 0), init_sampler(cfg, 0), Noted()
    expected = []
    for k, value in enumerate(norms):
        noted.norms.append(value)
        noted.sgd_norms.append(1.0)
        lazy.window_samples += 1  # the run loop counts each sample itself
        v, *_ = record_sample(eager, cfg, value, 1.0)
        expected.append(_oracle_sliced_variance(norms[max(0, k + 1 - n):k + 1], m))
        assert float_bits(v) == float_bits(expected[-1])
        assert len(eager.gnorm_buffer) == len(eager.v_history)
        if k in settle_after:
            settle(lazy, cfg, noted)
            assert len(lazy.gnorm_buffer) == len(lazy.v_history)
            assert len(noted.variances) == k + 1
    settle(lazy, cfg, noted)
    assert len(lazy.gnorm_buffer) == len(lazy.v_history) == min(len(norms), n)
    settle(lazy, cfg, noted)  # nothing left to settle
    assert len(noted.variances) == len(norms)
    assert noted.ratios == norms
    assert noted.fallbacks == [k + 1 < m for k in range(len(norms))]
    assert [float_bits(v) for v in noted.variances] == [float_bits(v) for v in expected]
    assert sampler_state_bits(lazy) == sampler_state_bits(eager)


_SPECIAL_NORMS = [0.0, -0.0, math.inf, 5e-324, 1e-310, 2.5]
_ANY_NORM = st.one_of(st.sampled_from(_SPECIAL_NORMS),
                      st.floats(min_value=0.0, max_value=1e300),
                      st.integers(1, 2**53).map(lambda k: k / 2**50))


@settings(deadline=None, max_examples=200)
@given(m=st.integers(2, 8), slice_width=st.integers(1, 8), data=st.data())
def test_block_routine_equals_scalar_oracle(m, slice_width, data):
    # settle at random points, and sliced_variance on each window alone, give the
    # bits of the scalar oracle: short windows (one slice), ragged windows still
    # filling and full ones, with repeats, signed zeros, inf and subnormals
    n = m * slice_width
    pool = data.draw(st.lists(_ANY_NORM, min_size=1, max_size=6))
    norms = data.draw(st.lists(st.one_of(st.sampled_from(pool), _ANY_NORM),
                               min_size=1, max_size=3 * n))
    settle_after = data.draw(st.sets(st.integers(0, len(norms) - 1), max_size=10))
    cfg = SamplerConfig(n_window=n, m_slices=m, s1=1, i_start=n)
    state, noted = init_sampler(cfg, 0), Noted()
    for k, value in enumerate(norms):
        noted.norms.append(value)
        noted.sgd_norms.append(1.0)
        if k in settle_after:
            settle(state, cfg, noted)
    settle(state, cfg, noted)
    got = noted.variances
    windows = [norms[max(0, k + 1 - n):k + 1] for k in range(len(norms))]
    expected = [float_bits(_oracle_sliced_variance(window, m)) for window in windows]
    assert [float_bits(v) for v in got] == expected
    assert [float_bits(sliced_variance(window, m)) for window in windows] == expected


def test_update_rate_settles_pending_samples_first():
    cfg = _cfg()
    lazy, eager, noted = init_sampler(cfg, 0), init_sampler(cfg, 0), Noted()
    for value in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0, 9.0, 7.0]:
        noted.norms.append(value)
        noted.sgd_norms.append(2.0 + value)
        lazy.window_samples += 1
        record_sample(eager, cfg, value, 2.0 + value)
    assert update_rate(lazy, cfg, noted) == update_rate(eager, cfg, Noted())
    assert noted.norms == [] and len(noted.variances) == 14
    assert sampler_state_bits(lazy) == sampler_state_bits(eager)
