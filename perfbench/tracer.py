"""Spans and counters recorded from outside the samlab package.

The tracer replaces a public function at the place its caller looks it up
(for example ``samlab.optim.eval_grad``, which the training loops call) with
a wrapper that records a span: name, start, end, parent span and run id.
Nothing under ``src/`` is edited; uninstalling restores every original.

Spans live in flat integer arrays while the run is going and are written
out once, when the run ends. A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the benchmark
runs one Python thread.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (module the caller looks the name up in, attribute, span name)
SPAN_TARGETS = [
    ("samlab.optim", "eval_grad", "objectives.eval_grad"),
    ("samlab.optim", "eval_loss", "objectives.heldout"),
    ("samlab.optim", "mlp_accuracy", "objectives.heldout"),
    ("samlab.optim", "make_batches", "data.make_batches"),
    ("samlab.harness", "generate_dataset", "data.generate_dataset"),
    ("samlab.optim", "subset_norm", "params.subset_norm"),
    ("samlab.optim", "step_sgd", "optim.step_sgd"),
    ("samlab.optim", "step_sampling", "optim.step_sampling"),
    ("samlab.optim", "step_reuse", "optim.step_reuse"),
    ("samlab.optim", "perturbation", "optim.perturbation"),
    ("samlab.optim", "run_sgd", "optim.loop"),
    ("samlab.optim", "run_sam", "optim.loop"),
    ("samlab.optim", "run_sam_k", "optim.loop"),
    ("samlab.optim", "run_vsam", "optim.loop"),
    ("samlab.harness", "run_sgd", "optim.loop"),
    ("samlab.harness", "run_sam", "optim.loop"),
    ("samlab.harness", "run_sam_k", "optim.loop"),
    ("samlab.harness", "run_vsam", "optim.loop"),
    ("samlab.optim", "should_sample", "sampler.should_sample"),
    ("samlab.optim", "record_sample", "sampler.record_sample"),
    ("samlab.optim", "update_rate", "sampler.update_rate"),
    ("samlab.harness", "write_metrics_csv", "metrics.write_metrics_csv"),
    ("samlab.harness", "read_metrics_csv", "metrics.read_metrics_csv"),
    ("samlab.harness", "norm_trace", "diagnostics.norm_trace"),
    ("samlab.harness", "write_norm_trace", "diagnostics.write_norm_trace"),
    # verify_run imports read_norm_trace lazily, from the module itself
    ("samlab.diagnostics", "read_norm_trace", "diagnostics.read_norm_trace"),
    ("samlab.harness", "run_experiment", "harness.run_experiment"),
    ("samlab.harness", "summarize", "harness.summarize"),
    ("samlab.harness", "verify_run", "harness.verify_run"),
    ("samlab.harness", "compare_report", "harness.compare_report"),
    ("samlab.harness", "config_from_dict", "harness.config_from_dict"),
]

# (module, class, method, counter name): constructions counted, no span
COUNT_TARGETS = [
    ("samlab.params", "ParamVector", "__post_init__", "params.ParamVector.constructs"),
    ("samlab.metrics", "MetricsRecord", "__init__", "metrics.MetricsRecord.constructs"),
]

SPAN_NAMES = sorted({name for _, _, name in SPAN_TARGETS})


class Tracer:
    """Records spans and counters; one run id per benchmark pass."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("q")
        self.span_run = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.run_id = -1
        self.counters: dict[str, float] = {}
        self._saved = []

    # -- installing wrappers ------------------------------------------------

    def install(self):
        for module_name, attr, span_name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(span_name, original, attr))
        for module_name, cls_name, method, counter in COUNT_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = getattr(cls, method)
            self._saved.append((cls, method, original))
            setattr(cls, method, self._count_wrapper(counter, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, span_name, fn, attr):
        nid = self._name_id[span_name]
        names, runs, parents = self.span_name, self.span_run, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        after = {"should_sample": self._after_should_sample,
                 "write_metrics_csv": self._after_write_metrics}.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            runs.append(self.run_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_wrapper(self, counter, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] = counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _after_should_sample(self, args, fired):
        _state, config, i = args
        if i > config.i_start:
            self.counters["sampler.decisions"] = self.counters.get("sampler.decisions", 0) + 1
            if fired:
                self.counters["sampler.fires"] = self.counters.get("sampler.fires", 0) + 1

    def _after_write_metrics(self, args, _result):
        key = "metrics.write_metrics_csv.bytes"
        self.counters[key] = self.counters.get(key, 0) + os.path.getsize(args[0])

    # -- passes -------------------------------------------------------------

    def begin_pass(self, run_id: int):
        self.run_id = run_id
        self.counters.clear()

    def end_pass(self) -> dict[str, float]:
        """Counter snapshot of the pass that just ended."""
        out = dict(self.counters)
        self.run_id = -1
        return out

    def layer_totals(self) -> dict[int, dict[str, tuple[int, float]]]:
        """Per run id: span name -> (calls, self seconds)."""
        if not self.span_start:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int64)
        runs = np.frombuffer(self.span_run, dtype=np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64))
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for run_id in np.unique(runs):
            sel = runs == run_id
            calls = np.bincount(names[sel], minlength=len(self.names))
            self_sum = np.bincount(names[sel], weights=self_ns[sel],
                                   minlength=len(self.names))
            out[int(run_id)] = {name: (int(calls[i]), float(self_sum[i]) * 1e-9)
                                for i, name in enumerate(self.names)}
        return out

    def write_spans(self, path):
        """All spans as a compressed numpy archive; times in ns from the first span."""
        base = self.span_start[0] if self.span_start else 0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64).astype(np.int32),
            run=np.frombuffer(self.span_run, dtype=np.int64).astype(np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64).astype(np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64) - base,
            end_ns=np.frombuffer(self.span_end, dtype=np.int64) - base,
        )
