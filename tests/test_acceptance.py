"""Acceptance suite: one test per release criterion, at full stated scale.

Each test prints a ``[PASS] criterion N`` line once its assertions hold, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import json
import math

import numpy as np
import pytest

from samlab.data import batches_per_epoch, generate_dataset, make_batches, train_test_split
from samlab.diagnostics import (bound_sweep, check_psf_bound, norm_trace,
                                random_pd_matrix, read_norm_trace)
from samlab.harness import config_from_dict, fan_out, run_experiment, RunSummary, verify_run
from samlab.metrics import FIELD_ORDER, WALL_CLOCK_FIELDS, read_metrics_csv
from samlab.objectives import (SHARP_FLAT_CALIBRATION, classify_basin, eval_grad,
                               init_params, make_mlp_classifier, make_quadratic,
                               make_rosenbrock, make_sharp_flat, sharp_flat_centers)
from samlab.optim import OptimizerConfig, run_sam, run_sam_k, run_sgd, run_vsam
from samlab.params import ParamVector
from samlab.sampler import (Noted, SamplerConfig, begin_windowing, init_sampler, settle,
                            should_sample, update_rate)

from helpers import (fd_gradient, grad_eval_ratio, hessian_oracle, replay_budget,
                     replay_sampler, sam_gradient, symmetric_eigen, whole_dataset_batch)


def _report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


def _random_pd_quadratic(rng, dim, weight_decay=0.0):
    a = random_pd_matrix(rng, dim)
    return make_quadratic(0.5 * (a + a.T), weight_decay=weight_decay)


# ---------------------------------------------------------------------------
# shared setups

MLP_SPEC = make_mlp_classifier((2, 16, 2), activation="tanh", weight_decay=1e-4)

MOONS_TASK = {
    "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2],
                  "activation": "tanh", "weight_decay": 1e-4},
    "dataset": {"kind": "moons", "n": 2000, "noise": 0.15, "seed": 42},
    "optimizer_config": {"eta0": 0.5, "rho": 0.05, "gamma": 0.9,
                         "lr_schedule": "cosine"},
    "epochs": 50,
    "batch_size": 64,
    "seeds": [0, 1, 2],
}
# s1 and i_start tuned for this task; the library defaults stay at the
# documented 25 / 5*N
MOONS_SAMPLER = {"n_window": 50, "m_slices": 5, "alpha": 0.13, "s1": 15,
                 "i_start": 100}


@pytest.fixture(scope="session")
def moons_runs(tmp_path_factory):
    """sgd / sam / vsam runs of the desk-scale efficiency task (3 seeds each)."""
    root = tmp_path_factory.mktemp("moons_runs")
    dirs = {}
    for method in ("sgd", "sam", "vsam"):
        payload = dict(MOONS_TASK, optimizer=method,
                       output_dir=str(root / method))
        if method == "vsam":
            payload["sampler_config"] = dict(MOONS_SAMPLER)
        dirs[method] = run_experiment(config_from_dict(payload))
    return dirs


def _summaries(run_dir):
    out = []
    with open(run_dir / "config.json") as fh:
        seeds = json.load(fh)["seeds"]
    for seed in seeds:
        with open(run_dir / f"seed_{seed}" / "summary.json") as fh:
            out.append(RunSummary.from_dict(json.load(fh)))
    return out


# ---------------------------------------------------------------------------
# criterion 1: always-sample vSAM is bit-identical to SAM

def test_criterion_1_sam_degenerate_equivalence():
    always = SamplerConfig(n_window=50, m_slices=5, s1=40, i_start=50, p_max=1.0,
                           force="always")
    cases = []
    quad = _random_pd_quadratic(np.random.default_rng(0), 6)
    cases.append((quad, None, None, OptimizerConfig(eta0=0.05, rho=0.1)))
    ds = generate_dataset("moons", 256, 0.15, seed=9)
    cases.append((MLP_SPEC, ds, 32, OptimizerConfig(eta0=0.3, rho=0.05)))

    for spec, dataset, batch_size, opt in cases:
        vs = run_vsam(spec, dataset, opt, always, 500, seed=1,
                      batch_size=batch_size, collect_params=True)
        sam = run_sam(spec, dataset, opt, 500, seed=1,
                      batch_size=batch_size, collect_params=True)
        assert len(vs.params_history) == len(sam.params_history) == 500
        for a, b in zip(vs.params_history, sam.params_history):
            assert np.array_equal(a, b)
        assert np.array_equal(vs.w_final.values, sam.w_final.values)
    _report(1, "always-sample trajectories bit-identical to SAM over 500 "
               "iterations (quadratic and MLP)")


# ---------------------------------------------------------------------------
# criterion 2: never-sample vSAM with underflowed decay is SGD post-warmup

def test_criterion_2_sgd_degenerate_equivalence():
    warmup = 100
    total = 500
    never = SamplerConfig(n_window=50, m_slices=5, s1=25, i_start=warmup,
                          force="never")
    cases = []
    quad = _random_pd_quadratic(np.random.default_rng(1), 6)
    cases.append((quad, None, None, OptimizerConfig(eta0=0.05, rho=0.1, gamma=1e-300)))
    ds = generate_dataset("moons", 256, 0.15, seed=9)
    cases.append((MLP_SPEC, ds, 32, OptimizerConfig(eta0=0.3, rho=0.05, gamma=1e-300)))

    for spec, dataset, batch_size, opt in cases:
        vs = run_vsam(spec, dataset, opt, never, total, seed=2,
                      batch_size=batch_size, collect_params=True)
        assert all(r.sampled for r in vs.records[:warmup])
        assert not any(r.sampled for r in vs.records[warmup:])
        w_mid = ParamVector(vs.params_history[warmup - 1])
        sgd = run_sgd(spec, dataset, opt, total - warmup, seed=2,
                      batch_size=batch_size, w0=w_mid, start_iteration=warmup,
                      schedule_total=total, collect_params=True)
        for a, b in zip(vs.params_history[warmup:], sgd.params_history):
            assert np.array_equal(a, b)
    _report(2, "post-warmup trajectories bit-identical to SGD from the warmup "
               "endpoint over 500-iteration runs")


# ---------------------------------------------------------------------------
# criterion 3: correction closed form on random PD quadratics

def test_criterion_3_psf_closed_form():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 21))
        spec = _random_pd_quadratic(rng, dim)
        w = ParamVector(rng.standard_normal(dim))
        rho = float(rng.uniform(0.01, 0.5))
        triple = sam_gradient(spec, w, None, rho)
        g = spec.a @ w.values
        expected = rho * (spec.a @ g) / np.linalg.norm(g)
        worst = max(worst, float(np.max(np.abs(triple.psf - expected))))
    assert worst <= 1e-9
    _report(3, f"correction matches rho*A*g/||g|| on 100 PD quadratics "
               f"(dims 2-20), max abs error {worst:.3g}")


# ---------------------------------------------------------------------------
# criterion 4: analytic gradients vs central finite differences

def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(4)
    blobs = whole_dataset_batch(generate_dataset("blobs", 64, 0.5, seed=1))
    m = rng.standard_normal((3, 3))
    kinds = {
        "quadratic": (make_quadratic(m + m.T + 4 * np.eye(3),
                                     rng.standard_normal(3), 0.01), None),
        "rosenbrock": (make_rosenbrock(4, weight_decay=1e-3), None),
        "sharp_flat": (make_sharp_flat(0.08, 0.5, 0.3, 2.0), None),
        "mlp_classifier": (MLP_SPEC, blobs),
    }
    worst = {}
    for name, (spec, batch) in kinds.items():
        errs = []
        for _ in range(50):
            if name == "mlp_classifier":
                w = init_params(spec, int(rng.integers(1 << 30)))
            else:
                w = ParamVector(rng.standard_normal(spec.param_count))
            _, g = eval_grad(spec, w, batch)
            fd = fd_gradient(spec, w, batch, 1e-5)
            errs.append(float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0))))
        worst[name] = max(errs)
        assert worst[name] <= 1e-5, f"{name}: {worst[name]}"
    _report(4, "gradients match finite differences at 50 random points per kind; "
               + ", ".join(f"{k} {v:.2g}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# criterion 5: curvature bound property sweep

def test_criterion_5_bound_sweep():
    results = bound_sweep(1000, (2, 8), seed=5)
    assert len(results) == 1000
    assert all(r.satisfied for r in results)

    rng = np.random.default_rng(55)
    worst_gap = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = random_pd_matrix(rng, dim)
        a = 0.5 * (a + a.T)
        decomp = symmetric_eigen(a)
        g = decomp.eigenvectors[:, int(rng.integers(0, dim))] * float(rng.uniform(0.5, 2.0))
        res = check_psf_bound(a, g, 0.1)
        worst_gap = max(worst_gap, abs(res.lhs - res.rhs))
        assert res.satisfied
    assert worst_gap <= 1e-10
    _report(5, f"bound holds on 1000 random PD cases; eigenvector-aligned "
               f"equality gap <= {worst_gap:.3g}")


# ---------------------------------------------------------------------------
# criteria 6 and 7: sampler oracle equivalence, cap, and rate bounds

def _random_trace(rng):
    n = int(rng.choice([4, 6, 8, 12, 20]))
    m = int(rng.choice([2, n // 2]))
    p_max = float(rng.choice([0.5, 0.8, 1.0]))
    s1 = float(rng.integers(1, max(int(p_max * n), 1) + 1))
    alpha = float(rng.choice([0.0, 0.13, 2.0]))
    cfg = SamplerConfig(n_window=n, m_slices=m, alpha=alpha, s1=s1, i_start=n,
                        p_max=p_max)
    state, noted = init_sampler(cfg, 0), Noted()
    events = []
    rates = (None, None)  # (c_var, c_norm) of the last rate update
    for _ in range(int(rng.integers(3, 40))):
        if rng.random() < 0.75:
            psf = 0.0 if rng.random() < 0.15 else float(rng.random() * 10.0)
            sgd = 0.0 if rng.random() < 0.15 else float(rng.random() * 5.0)
            # noted as the training loop notes it: update_rate settles
            noted.norms.append(psf)
            noted.sgd_norms.append(sgd)
            state.window_samples += 1
            events.append(("record", psf, sgd))
        else:
            rates = update_rate(state, cfg, noted)
            events.append(("update",))
    settle(state, cfg, noted)
    return cfg, state, events, rates


def test_criterion_6_sampler_oracle_equivalence():
    rng = np.random.default_rng(6)
    p_bounds_checked = 0
    for _ in range(10_000):
        cfg, state, events, rates = _random_trace(rng)
        expected = replay_sampler(events, cfg.n_window, cfg.m_slices, cfg.alpha,
                                  cfg.s1, cfg.p_max, cfg.eps)
        assert state.gnorm_buffer == expected["gnorm_buffer"]
        assert state.v_history == expected["v_history"]
        assert state.r_history == expected["r_history"]
        assert state.s == expected["s"]
        assert state.p == expected["p"]
        assert state.window_samples == expected["window_samples"]
        assert rates == (expected["last_c_var"], expected["last_c_norm"])
        if any(e[0] == "update" for e in events):
            assert 1.0 / cfg.n_window <= state.p <= cfg.p_max
            p_bounds_checked += 1
    assert p_bounds_checked > 1000
    _report(6, "incremental state equals brute-force recomputation on 10^4 "
               "randomized traces, exactly")


def test_criterion_7_cap_and_bounds():
    cfg = SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=25, i_start=50,
                        p_max=0.8)
    cap = cfg.sample_cap
    assert cap == 40
    rng = np.random.default_rng(7)
    state = init_sampler(cfg, 77)
    begin_windowing(state)
    i = cfg.i_start
    for _ in range(10_000):  # windows
        fired, noted = 0, Noted()
        for _ in range(cfg.n_window):
            i += 1
            if should_sample(state, cfg, i):
                fired += 1
                # the run loop notes a sample on every fired iteration; update_rate settles
                noted.norms.append(float(rng.random()))
                noted.sgd_norms.append(float(rng.random()) + 0.1)
                state.window_samples += 1
        assert fired <= cap
        assert state.window_samples == fired
        update_rate(state, cfg, noted)
        assert 1.0 / cfg.n_window <= state.p <= cfg.p_max
        # keep the controller hot so the cap is actually exercised
        state.s = max(state.s, 45.0 if rng.random() < 0.5 else state.s)
        state.p = min(state.s / cfg.n_window, 1.0)
    _report(7, "no window exceeded floor(0.8*N) samples and p stayed in "
               "[1/N, 0.8] over 10^4 windows")


# ---------------------------------------------------------------------------
# criterion 8: cost accounting via the verify subcommand

def test_criterion_8_cost_accounting(moons_runs):
    for seed in (0, 1, 2):
        seed_dir = moons_runs["vsam"] / f"seed_{seed}"
        ok, lines = verify_run(seed_dir)
        assert ok, "\n".join(lines)
        records = read_metrics_csv(seed_dir / "metrics.csv")
        samples = sum(1 for r in records if r.sampled)
        assert records[-1].cumulative_grad_evals == len(records) + samples
    _report(8, "grad evals = iterations + sampling number on every vSAM run, "
               "confirmed by the verifier")


# ---------------------------------------------------------------------------
# criterion 9: flat-minimum selection on the sharp/flat landscape

def test_criterion_9_flat_minimum_selection():
    cal = SHARP_FLAT_CALIBRATION
    spec = make_sharp_flat(cal["width_sharp"], cal["width_flat"],
                           cal["depth_gap"], cal["separation"])
    (x_sharp, _), _ = sharp_flat_centers(spec)
    opt = OptimizerConfig(eta0=cal["eta0"], rho=cal["rho"], gamma=0.9,
                          lr_schedule=cal["lr_schedule"])
    scfg = SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=25, i_start=250)
    iters = cal["iterations"]
    half = cal["init_halfwidth"]

    def basins(candidate):
        """(SAM's basin, vSAM's) from a start where SGD ends sharp; None from any other."""
        tried, w0 = candidate
        sgd_basin = classify_basin(
            spec, run_sgd(spec, None, opt, iters, seed=tried, w0=w0).w_final)
        if sgd_basin != "sharp":
            return None
        return (classify_basin(spec, run_sam(spec, None, opt, iters, seed=tried, w0=w0).w_final),
                classify_basin(
                    spec, run_vsam(spec, None, opt, scfg, iters, seed=tried, w0=w0).w_final))

    # the candidates are drawn here in order, a block of as many as are still needed at a
    # time, so the first 100 qualifiers are the serial loop's and tried is the 100th's index
    rng = np.random.default_rng(1234)
    qualifying, tried = [], 0
    while len(qualifying) < 100:
        block = []
        for _ in range(100 - len(qualifying)):
            tried += 1
            assert tried < 500, "initialization sampling should not struggle"
            block.append((tried, ParamVector(np.array([x_sharp + rng.uniform(-half, half),
                                                       rng.uniform(-half, half)]))))
        qualifying += [pair for pair in fan_out(basins, block) if pair is not None]
    sam_flat = sum(sam_basin == "flat" for sam_basin, _ in qualifying)
    agree = sum(vsam_basin == sam_basin for sam_basin, vsam_basin in qualifying)
    assert sam_flat >= 90, f"SAM reached the flat basin only {sam_flat}/100 times"
    assert agree >= 90, f"vSAM agreed with SAM only {agree}/100 times"
    _report(9, f"SAM escaped to the flat basin {sam_flat}/100; vSAM agreed "
               f"{agree}/100 (rho={cal['rho']})")


# ---------------------------------------------------------------------------
# criterion 10: desk-scale efficiency/accuracy trade on MLP + moons

def test_criterion_10_efficiency_accuracy_trade(moons_runs):
    summaries = {m: _summaries(moons_runs[m]) for m in ("sgd", "sam", "vsam")}
    accs = {m: float(np.mean([s.final_eval_accuracy for s in v]))
            for m, v in summaries.items()}
    ratios = [grad_eval_ratio(a, b)
              for a, b in zip(summaries["vsam"], summaries["sam"])]
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 0.80, f"vSAM cost ratio {mean_ratio:.3f} exceeds 0.80"
    assert abs(accs["vsam"] - accs["sam"]) <= 0.01, accs   # within 1.0 point
    assert accs["vsam"] >= accs["sgd"] - 0.005, accs       # >= SGD - 0.5 points
    _report(10, f"vSAM used {mean_ratio:.2f}x SAM's gradient evaluations; "
                f"accuracy sgd/sam/vsam = {accs['sgd']:.4f}/{accs['sam']:.4f}/"
                f"{accs['vsam']:.4f}")


# ---------------------------------------------------------------------------
# criterion 11: norm-trace emission and schema

def test_criterion_11_trace_emission(moons_runs):
    for method in ("sgd", "sam", "vsam"):
        for seed in (0, 1, 2):
            seed_dir = moons_runs[method] / f"seed_{seed}"
            metrics_path = seed_dir / "metrics.csv"
            header = metrics_path.read_text().splitlines()[0].split(",")
            assert header == FIELD_ORDER
            rows = read_norm_trace(seed_dir / "norm_trace.csv")
            records = read_metrics_csv(metrics_path)
            assert [r["iteration"] for r in rows] == [r.iteration for r in records]
            assert rows == norm_trace(records)
    # staleness flags: the vsam run must mark reuse iterations
    rows = read_norm_trace(moons_runs["vsam"] / "seed_0" / "norm_trace.csv")
    assert any(r["psf_stale"] for r in rows)
    assert any(r["psf_stale"] is False for r in rows)
    assert all(r["l2_psf"] is not None for r in rows)
    _report(11, "every run emits the (iteration, l2_sgd, l2_psf) table with "
                "ordered iterations and staleness flags")


# ---------------------------------------------------------------------------
# criterion 12: reproducibility modulo wall-clock columns

def test_criterion_12_reproducibility(moons_runs, tmp_path):
    payload = dict(MOONS_TASK, optimizer="vsam", seeds=[0],
                   sampler_config=dict(MOONS_SAMPLER),
                   output_dir=str(tmp_path / "rerun"))
    rerun = run_experiment(config_from_dict(payload))
    first = read_metrics_csv(moons_runs["vsam"] / "seed_0" / "metrics.csv")
    second = read_metrics_csv(rerun / "seed_0" / "metrics.csv")
    assert len(first) == len(second)
    for a, b in zip(first, second):
        for name in FIELD_ORDER:
            if name in WALL_CLOCK_FIELDS:
                continue
            assert getattr(a, name) == getattr(b, name), name
    assert (rerun / "seed_0" / "norm_trace.csv").read_bytes() == \
        (moons_runs["vsam"] / "seed_0" / "norm_trace.csv").read_bytes()
    _report(12, "re-run metrics identical modulo wall-clock columns")


# ---------------------------------------------------------------------------
# criterion 13: vSAM gets most of SAM's sharpness reduction, and more than the
# other ways to spend its evaluations

SHARPNESS_SEEDS = range(5)  # the first run seeds, in order, none picked
# vSAM's share of SAM's reduction, (sgd - vsam) / (sgd - sam) on the means: over
# run seeds 0-39, every 5-seed subset read at least 0.848 (1st percentile 0.867)
MIN_SHARPNESS_SHARE = 0.80


def _moons_task():
    """MOONS_TASK's dataset, optimizer config and iteration count."""
    data = MOONS_TASK["dataset"]
    ds = generate_dataset(data["kind"], data["n"], data["noise"], seed=data["seed"])
    train, _ = train_test_split(ds)
    iters = MOONS_TASK["epochs"] * batches_per_epoch(train.n, MOONS_TASK["batch_size"])
    return ds, OptimizerConfig(**MOONS_TASK["optimizer_config"]), iters


@pytest.fixture(scope="module")
def moons_vsam_runs():
    """vSAM on MOONS_TASK with MOONS_SAMPLER, by run seed (SHARPNESS_SEEDS): criteria 13 and 15."""
    ds, opt, iters = _moons_task()
    scfg = SamplerConfig(**MOONS_SAMPLER)
    return {seed: run_vsam(MLP_SPEC, ds, opt, scfg, iters, seed,
                           batch_size=MOONS_TASK["batch_size"])
            for seed in SHARPNESS_SEEDS}


def test_criterion_13_vsam_gets_most_of_sams_sharpness_reduction(moons_vsam_runs):
    ds, opt, iters = _moons_task()
    train, _ = train_test_split(ds)
    whole = whole_dataset_batch(train)
    batch_size = MOONS_TASK["batch_size"]

    def top_eigenvalues(seed):
        """Arm -> the top Hessian eigenvalue at its final weights, on run seed ``seed``."""
        vsam = moons_vsam_runs[seed]
        # SAM at vSAM's own evaluation count, on its own schedule
        stopped = vsam.records[-1].cumulative_grad_evals // 2
        finals = {"sgd": run_sgd(MLP_SPEC, ds, opt, iters, seed, batch_size=batch_size),
                  "sam": run_sam(MLP_SPEC, ds, opt, iters, seed, batch_size=batch_size),
                  "vsam": vsam,
                  "sam_k": run_sam_k(MLP_SPEC, ds, opt, 2, iters, seed, batch_size=batch_size),
                  "sam_stopped": run_sam(MLP_SPEC, ds, opt, stopped, seed, batch_size=batch_size)}
        return {arm: float(hessian_oracle(MLP_SPEC, result.w_final, whole)[1][-1])
                for arm, result in finals.items()}

    tops = fan_out(top_eigenvalues, SHARPNESS_SEEDS)
    mean = {arm: float(np.mean([by_arm[arm] for by_arm in tops])) for arm in tops[0]}
    share = (mean["sgd"] - mean["vsam"]) / (mean["sgd"] - mean["sam"])
    assert share >= MIN_SHARPNESS_SHARE, (share, mean)
    assert mean["vsam"] < mean["sam_k"], mean
    assert mean["vsam"] < mean["sam_stopped"], mean
    _report(13, f"vSAM got {share:.3f} of SAM's sharpness reduction (bound "
                f"{MIN_SHARPNESS_SHARE}) over seeds 0-{SHARPNESS_SEEDS[-1]}; mean top "
                "Hessian eigenvalue " + ", ".join(f"{arm} {v:.4f}" for arm, v in mean.items()))


# ---------------------------------------------------------------------------
# criterion 14: the PSF is the Hessian's projection on the gradient, to first order in rho

PSF_RHO = 0.05
# the error at rho over the error at rho / 10: 10 when it is linear in rho, as first order
# leaves it; about 1 if psf were not rho * H * g/||g|| at all, 100 if it were to second order
PSF_ERROR_RATIO = (5.0, 25.0)
PSF_MIN_COSINE = 0.99  # between psf and rho * H * g/||g|| at rho = PSF_RHO


def _psf_against_hessian(spec, w, batch):
    """(relative error at PSF_RHO, its ratio to the error at PSF_RHO / 10, cosine at PSF_RHO)."""
    hess, _ = hessian_oracle(spec, w, batch)
    errors = []
    for rho in (PSF_RHO, PSF_RHO / 10):
        triple = sam_gradient(spec, w, batch, rho)
        predicted = rho * (hess @ triple.g_sgd) / triple.l2_sgd
        errors.append(float(np.linalg.norm(triple.psf - predicted)) / triple.l2_psf)
        if rho == PSF_RHO:
            cosine = float(triple.psf @ predicted) / (triple.l2_psf * np.linalg.norm(predicted))
    return errors[0], errors[0] / errors[1], cosine


def test_criterion_14_psf_is_the_hessian_projection_to_first_order():
    ds = generate_dataset("moons", 2000, 0.15, seed=42)  # MOONS_TASK's dataset
    train, _ = train_test_split(ds)
    whole = whole_dataset_batch(train)
    opt = OptimizerConfig(**MOONS_TASK["optimizer_config"])
    points = {"mlp": [], "sharp_flat": []}
    for seed in (0, 1):
        batch = make_batches(train, 64, seed, 0)[0]
        after_sgd = run_sgd(MLP_SPEC, ds, opt, 300, seed, batch_size=64).w_final
        for w in (init_params(MLP_SPEC, seed), after_sgd):
            points["mlp"] += [(MLP_SPEC, w, whole), (MLP_SPEC, w, batch)]
    cal = SHARP_FLAT_CALIBRATION
    spec = make_sharp_flat(cal["width_sharp"], cal["width_flat"], cal["depth_gap"],
                           cal["separation"])
    (x_sharp, _), (x_flat, _) = sharp_flat_centers(spec)
    rng = np.random.default_rng(14)
    for center, half in ((x_sharp, 0.25), (x_flat, 0.5)):  # in each well, off its bottom
        for _ in range(4):
            w = ParamVector(np.array([center + rng.uniform(-half, half),
                                      rng.uniform(-half, half)]))
            points["sharp_flat"].append((spec, w, None))

    summary = []
    for task, task_points in points.items():
        errors, ratios, cosines = zip(*[_psf_against_hessian(*point) for point in task_points])
        assert all(PSF_ERROR_RATIO[0] <= r <= PSF_ERROR_RATIO[1] for r in ratios), (task, ratios)
        assert min(cosines) >= PSF_MIN_COSINE, (task, cosines)
        summary.append(f"{task} ({len(errors)} points) relative error at rho {PSF_RHO} "
                       f"{min(errors):.3f}-{max(errors):.3f}, error ratio to rho/10 "
                       f"{min(ratios):.1f}-{max(ratios):.1f}, cosine >= {min(cosines):.5f}")
    _report(14, "psf = rho*H*g/||g|| to first order in rho; " + "; ".join(summary))


# ---------------------------------------------------------------------------
# criterion 15: vSAM samples more often late in a run, as the paper reports of the PSF's
# rate of change; and the controller's budget replays from the logged r and v

# the last fifth's mean post-warmup sample share minus the first fifth's, over the run
# seeds of criterion 13 (0.194 on seeds 0-4). Fixed from seeds 0-39: each seed's share rose
# (by 0.074-0.335 on MOONS_TASK's dataset, 0.039-0.270 on dataset seed 0), and the means
# of the eight 5-seed blocks read 0.161-0.235 and 0.134-0.223
MIN_SAMPLE_SHARE_RISE = 0.10
NULL_SHUFFLE_SEED = 15  # the shuffled-r null's generator


def _first_and_last_fifth_shares(records, i_start):
    """The share of sampled rows among the first and the last fifth of the post-warmup rows."""
    post = [row.sampled for row in records if row.iteration > i_start]
    fifth = len(post) // 5
    return sum(post[:fifth]) / fifth, sum(post[-fifth:]) / fifth


def test_criterion_15_the_sample_rate_rises(moons_vsam_runs):
    scfg = SamplerConfig(**MOONS_SAMPLER)
    rng = np.random.default_rng(NULL_SHUFFLE_SEED)
    shares, budget_ratios, log_changes = [], [], []
    c_norms = {"logged": [], "shuffled": []}
    for seed, run in moons_vsam_runs.items():
        records = run.records
        shares.append(_first_and_last_fifth_shares(records, scfg.i_start))
        replayed, budget = replay_budget(records, scfg)
        assert [(row.p, row.s, row.c_var, row.c_norm) for row in records] == replayed, seed
        assert budget == run.sampler_state.s, seed

        # the null: the post-warmup r series shuffled, the samples where the run put them
        ratios = [row.r for row in records if row.sampled]
        warmup = sum(row.sampled for row in records if row.iteration <= scfg.i_start)
        post = ratios[warmup:]
        shuffled_rows, shuffled_budget = replay_budget(
            records, scfg, ratios[:warmup] + [post[i] for i in rng.permutation(len(post))])
        budget_ratios.append(shuffled_budget / budget)
        for name, rows in (("logged", replayed), ("shuffled", shuffled_rows)):
            ends = [values for row, values in zip(records, rows)
                    if row.iteration > scfg.i_start
                    and (row.iteration - scfg.i_start) % scfg.n_window == 0]
            c_norms[name] += [c_norm for _, _, _, c_norm in ends]
        log_changes += [math.log(b / a) for a, b in zip(post, post[1:])]

    first, last = (float(np.mean(side)) for side in zip(*shares))
    assert last - first >= MIN_SAMPLE_SHARE_RISE, shares
    _report(15, f"the post-warmup sample share rose {first:.3f} -> {last:.3f} from the first "
                f"fifth of the run to the last (bound {MIN_SAMPLE_SHARE_RISE}), seeds "
                f"0-{SHARPNESS_SEEDS[-1]}; the budget replays from the logged r and v exactly")
    print(f"  null, post-warmup r shuffled (seed {NULL_SHUFFLE_SEED}), not asserted: final "
          f"budget {np.mean(budget_ratios):.3f} x the run's (min {min(budget_ratios):.3f}, "
          f"max {max(budget_ratios):.3f}); mean c_norm per window {np.mean(c_norms['logged']):.4f}"
          f", shuffled {np.mean(c_norms['shuffled']):.4f}; mean log change of r per sample "
          f"{np.mean(log_changes):.5f}")
