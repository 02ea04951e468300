"""Outside-in tracing of the readmitlab package.

`install(tracer)` wraps public functions and methods of the package from
outside: a module-level function is replaced in every readmitlab module
that holds it (and in the `SCORERS` table), and a method is replaced on the
class that defines it. Each wrapper records one span: (id, name, start, end,
parent, thread, n), where `n` is a work count taken from the call's
arguments or result (rows, nodes, bytes, ...). Spans stay in memory; `summarize` turns them into the
per-module metrics.

Each thread keeps its own span stack. A span that opens in a fold-pool
thread with an empty stack takes the open `evaluate.cross_validate` span as
its parent, so fold work stays attached to the study that caused it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("data", "features", "resample", "nn", "optim", "trees", "models",
           "evaluate", "ensemble", "report", "cli")

CROSS_VALIDATE = "evaluate.cross_validate"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_cv: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call. count(arguments, result) gives the
        span's n, with `arguments` the call's arguments by parameter name."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_cv[-1] if self._open_cv else None
            span_id = next(self._ids)
            stack.append(span_id)
            if name == CROSS_VALIDATE:
                self._open_cv.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if name == CROSS_VALIDATE:
                    self._open_cv.remove(span_id)
            n = 1 if count is None else count(signature.bind(*args, **kwargs).arguments, result)
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), n))
            return result

        return traced


def _replace_function(tracer: Tracer, module, attr: str, name: str, count=None) -> None:
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "readmitlab" or mod_name.startswith("readmitlab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    scorers = sys.modules["readmitlab.features"].SCORERS
    for key, value in list(scorers.items()):
        if value is original:
            scorers[key] = traced


def _replace_method(tracer: Tracer, cls, attr: str, name: str, count=None) -> None:
    owner = next(c for c in cls.__mro__ if attr in c.__dict__)
    original = owner.__dict__[attr]
    if not hasattr(original, "__wrapped__"):  # not yet wrapped through a sibling class
        setattr(owner, attr, tracer.wrap(name, original, count))


def _report_bytes(arguments, result) -> int:
    out = Path(result)
    return sum((out / f).stat().st_size for f in ("config.json", "report.tsv", "report.txt"))


def _tree_nodes(arguments, result) -> int:
    def count(node) -> int:
        return 1 if node.is_leaf else 1 + count(node.left) + count(node.right)

    return count(result.root)


def install(tracer: Tracer) -> None:
    """Wrap the package's public layer boundaries. Import readmitlab.cli first."""
    from readmitlab import (cli, data, ensemble, evaluate, features, models, nn,
                            optim, report, resample, trees)

    fn = _replace_function
    fn(tracer, data, "load_dataset", "data.load", lambda a, r: r.n_instances)
    fn(tracer, data, "dataset_sha256", "data.hash")
    for attr in ("stratified_subsample", "min_max_normalize", "stratified_kfold"):
        fn(tracer, data, attr, "data.prep")
    _replace_method(tracer, data.Dataset, "take", "data.prep")

    for attr in ("chi_square_scores", "pearson_scores", "anova_f_scores"):
        fn(tracer, features, attr, "features.score")

    fn(tracer, resample, "oversample", "resample.oversample",
       lambda a, r: r.n_instances - a["data"].n_instances)

    for cls, kind in ((nn.Conv1d, "conv"), (nn.Dense, "dense"), (nn.MaxPool1d, "pool")):
        _replace_method(tracer, cls, "forward", f"nn.{kind}_fwd")
        _replace_method(tracer, cls, "backward", f"nn.{kind}_bwd")
    for cls in (nn.Relu, nn.Dropout, nn.Flatten, nn.AsChannels, nn.AsSequence, nn.LastStep):
        _replace_method(tracer, cls, "forward", "nn.elementwise")
        _replace_method(tracer, cls, "backward", "nn.elementwise")
    fn(tracer, nn, "softmax_cross_entropy", "nn.loss", lambda a, r: len(a["labels"]))
    fn(tracer, nn, "train_network", "nn.train")
    fn(tracer, nn, "predict_logits", "nn.predict")

    def param_elems(arguments, result) -> int:
        return sum(v.size for v in arguments["params"].values())

    for cls in optim.OPTIMIZERS.values():
        _replace_method(tracer, cls, "step", "optim.step", param_elems)

    _replace_method(tracer, trees.RegressionTree, "fit", "trees.tree_fit", _tree_nodes)
    _replace_method(tracer, trees.RegressionTree, "predict", "trees.tree_predict")
    _replace_method(tracer, trees.GradientBoostedClassifier, "fit", "trees.boost_fit",
                    lambda a, r: len(r.trees_))
    _replace_method(tracer, trees.GradientBoostedClassifier, "predict", "trees.boost_predict")

    _replace_method(tracer, models.NetworkClassifier, "fit", "models.network_fit")
    _replace_method(tracer, models.NetworkClassifier, "predict", "models.network_predict")

    fn(tracer, evaluate, "cross_validate", CROSS_VALIDATE, lambda a, r: a["folds"].k)
    fn(tracer, evaluate, "grid_sweep", "evaluate.grid_sweep", lambda a, r: len(r))

    fn(tracer, ensemble, "cross_validate_cascade", "ensemble.cascade_cv",
       lambda a, r: a["folds"].k)

    _replace_method(tracer, report.RunReport, "write", "report.write", _report_bytes)
    cli.main = tracer.wrap("cli.main", cli.main)


# ---------------------------------------------------------------------------
# aggregation


def summarize(spans: list, *, workers: int, import_s: float) -> dict[str, float]:
    """Per-module metrics from recorded spans.

    `*_s` is busy time summed over threads. Self time subtracts only the
    child spans of the same thread; a parent waiting on pool threads counts
    that wait as its own.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    children_any: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, thread, _ in spans:
        if parent in by_id:
            children_any[parent] += end - start
            if by_id[parent][5] == thread:
                child_time[parent] += end - start

    # names of each span's ancestors; a parent opens before its children, so
    # its id is smaller and its own entry is ready when they are reached
    above: dict[int, frozenset] = {}
    below: dict[int, frozenset] = {}
    for sid, _, _, _, parent, _, _ in sorted(spans):
        if parent not in by_id:
            above[sid] = frozenset()
            continue
        if parent not in below:
            below[parent] = above[parent] | {by_id[parent][1]}
        above[sid] = below[parent]

    busy = defaultdict(float)      # by span name
    self_t = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    mod_busy = defaultdict(float)
    mod_self = defaultdict(float)
    cascade_net_fits = 0
    for sid, name, start, end, parent, thread, n in spans:
        dur = end - start
        own = dur - child_time[sid]
        busy[name] += dur
        self_t[name] += own
        calls[name] += 1
        work[name] += n
        module = name.split(".")[0]
        if not any(a.split(".")[0] == module for a in above[sid]):
            mod_busy[module] += dur
        mod_self[module] += own
        if name == "models.network_fit" and "ensemble.cascade_cv" in above[sid]:
            cascade_net_fits += 1

    cv_wall = busy[CROSS_VALIDATE]
    fold_busy = sum(children_any[s[0]] for s in spans if s[1] == CROSS_VALIDATE)
    cascade_folds = work["ensemble.cascade_cv"]
    m = {
        "data.load_s": busy["data.load"],
        "data.hash_s": busy["data.hash"],
        "data.prep_s": busy["data.prep"],
        "data.rows_loaded": work["data.load"],
        "features.score_s": busy["features.score"],
        "features.calls": calls["features.score"],
        "resample.oversample_s": busy["resample.oversample"],
        "resample.oversample_calls": calls["resample.oversample"],
        "resample.rows_synthesized": work["resample.oversample"],
        "nn.conv_fwd_s": busy["nn.conv_fwd"],
        "nn.conv_bwd_s": busy["nn.conv_bwd"],
        "nn.dense_fwd_s": busy["nn.dense_fwd"],
        "nn.dense_bwd_s": busy["nn.dense_bwd"],
        "nn.pool_fwd_s": busy["nn.pool_fwd"],
        "nn.pool_bwd_s": busy["nn.pool_bwd"],
        "nn.elementwise_s": busy["nn.elementwise"],
        "nn.loss_s": busy["nn.loss"],
        "nn.train_self_s": self_t["nn.train"],
        "nn.predict_s": busy["nn.predict"],
        "nn.batches": calls["nn.loss"],
        "nn.samples_trained": work["nn.loss"],
        "nn.samples_per_s": work["nn.loss"] / busy["nn.train"] if busy["nn.train"] else 0.0,
        "optim.step_s": busy["optim.step"],
        "optim.steps": calls["optim.step"],
        "optim.param_elems": work["optim.step"],
        "trees.tree_fit_s": busy["trees.tree_fit"],
        "trees.tree_fits": calls["trees.tree_fit"],
        "trees.nodes": work["trees.tree_fit"],
        "trees.tree_predict_s": busy["trees.tree_predict"],
        "trees.boost_fit_self_s": self_t["trees.boost_fit"],
        "trees.boost_predict_s": busy["trees.boost_predict"],
        "trees.rounds": work["trees.boost_fit"],
        "models.network_fit_s": busy["models.network_fit"],
        "models.network_fits": calls["models.network_fit"],
        "models.network_predict_s": busy["models.network_predict"],
        "evaluate.cv_s": cv_wall,
        "evaluate.folds_run": work[CROSS_VALIDATE],
        "evaluate.fold_busy_s": fold_busy,
        "evaluate.parallel_eff": fold_busy / (workers * cv_wall) if cv_wall else 0.0,
        "evaluate.sweep_cells": work["evaluate.grid_sweep"],
        "ensemble.cascade_cv_s": busy["ensemble.cascade_cv"],
        "ensemble.network_fits_per_fold":
            cascade_net_fits / cascade_folds if cascade_folds else 0.0,
        "report.write_s": busy["report.write"],
        "report.bytes": work["report.write"],
        "cli.import_s": import_s,
        "cli.main_s": busy["cli.main"],
    }
    for module in MODULES:
        m[f"{module}.busy_s"] = mod_busy[module]
        m[f"{module}.self_s"] = mod_self[module]
    return m

