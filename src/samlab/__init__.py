"""Desk-scale laboratory for sharpness-aware optimizers with adaptive sampling."""

from .data import (Batch, Dataset, DatasetConfig, dataset_checksum, generate_dataset,
                   load_dataset, make_batches, save_dataset, split_sizes, train_test_split)
from .diagnostics import BoundCheckResult, bound_sweep, check_psf_bound, norm_trace
from .errors import (ConfigurationError, ContractViolationError, NumericError,
                     SamlabError)
from .harness import (ExperimentConfig, RunSummary, compare_report, compute_ais,
                      config_from_dict, load_config, run_experiment, summarize, verify_run)
from .metrics import MetricsRecord, read_metrics_csv, write_metrics_csv
from .objectives import (ObjectiveSpec, classify_basin, eval_grad, eval_loss, init_params,
                         make_mlp_classifier, make_quadratic, make_rosenbrock,
                         make_sharp_flat, mlp_accuracy, sharp_flat_ridge)
from .optim import (OptimizerConfig, PSFCache, RunResult, perturbation, reuse_coefficient,
                    run_sam, run_sam_k, run_sgd, run_vsam, step_reuse, step_sampling, step_sgd)
from .params import ParamVector, default_subset, subset_norm
from .sampler import (SamplerConfig, SamplerState, change_rate_series, init_sampler,
                      record_sample, should_sample, update_rate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
