"""Config-driven experiment commands.

Subcommands: ingest, stats, select, resample, train, sweep, cascade,
binary-study, report. Options come from a JSON config file (--config) with
command-line flags overriding individual fields. One option table, _COMMANDS,
gives each command its option groups; each entry names a flag (or none, for a
config-only field), the config field it sets, and a top-level field's
default. From it come the parser, the flag-to-field routing, the defaults and
the config-field check: a command offers only the flags it reads, and any
other config field is a config error. One rule covers a setting that the
chosen method or architecture never reads: it may hold only its default. The
module of each settings class keeps the table of who reads what
(nn.ARCHITECTURE_SETTINGS: a network's kernel_size and dropout;
resample.METHOD_SETTINGS: k_neighbors, read by the four synthesizing
oversamplers, and nearmiss_version and n_ref, read by nearmiss;
features.SCORER_SETTINGS: paper_exclusion, read by pearson), and _merge
applies the rule to every section. In a config file, a section is a JSON
object and a field that has a flag holds what the flag would give (_VALUES),
or null where the field has no default; _resolve checks both, and so the
counts: seed >= 0, folds >= 2, workers >= 1 (_COUNTS). Each command then
resolves every section and list it reads, and only then loads the CSV, so a
bad setting fails before the CSV is hashed or read; only the checks that
need the rows wait for them (a select k against the feature count, a
network's input width, the saved cascade's scaling, select's default k). A
setting that names a choice (architecture, optimizer, resample method,
scorer, model kind, regime) is checked by errors.check_choice alone, when
its class is built (a regime's by _cmd_binary_study), so a flag and a config
file fail alike. A list-valued field (compare_ks, regimes, features, runs)
is a list or a comma-separated string with no entry given twice, read by
_names.
Every run needs an output directory that neither is nor lies under an
existing file (a config error before the data load); every command but
report also needs a seed (--seed flag, config "seed", or the READMIT_SEED
environment variable) and an input CSV (--data or config "dataset"). A run
writes three files: config.json (the resolved config echo), report.tsv, and
report.txt. Reports embed the input CSV's content
hash and never embed timestamps or the output path, so identical configs
produce byte-identical reports.

Config sections' fields and defaults are _SECTIONS (select, resample,
network, booster, grid) and _MODEL_DEFAULTS (model, per kind). A select,
resample, model, network or booster section's fields and defaults are the
constructor keywords of its class (Selection, ResamplePlan,
NetworkClassifier, GradientBoostedClassifier, RandomForest), read by
_defaults; none is restated here. _merge resolves every section the same
way: it builds the section's class once, so a bad setting is a config error
naming the section before any fold work, and records the whole merged
section for config.json to echo. sweep builds a network once for each value
of each grid axis, so a bad value is a config error naming grid.<axis>. A
network is also built once at each feature count it will see (select builds
one for every k of compare_ks), so an input too short for its architecture
is a data error before any fold work. sweep runs the grid (the paper's,
PAPER_GRID, unless a "grid" section narrows it; each axis a nonempty list
with no value given twice), so its model section has no epochs,
learning_rate or batch_size. cascade has no model section: its network
flags set the "network" section and --n-rounds and --max-depth the
"booster" section; the booster's learning rate is set only by the "booster"
section.

Min-max scaling (--normalize, on by default), the select section and the
resample section make one evaluate.FoldPipeline, fitted in that order. The
commands that cross-validate (train, sweep, cascade, binary-study, select
with compare_ks) fit it on each training fold alone and report each fold's
constant and selected columns and resampled class counts as "fold f: ..."
lines (binary-study's prefixed with each regime's name). --paper-mode is the
one switch back to the study's whole-dataset protocol: it fits the same
pipeline once on all rows, with the run seed, and then splits the folds,
which fit nothing. The commands without folds (ingest, stats, select
without compare_ks, resample) and cascade --save-model always take that
whole-dataset path; the saved cascade records the ScalingSpec its scaling
fitted on the raw rows, taken before any fold work. A select k outside
1..the feature count is a config error before any fold work; a training
fold with fewer columns its scorer can score than k is a data error naming
the fold.

Exit codes: 0 success, 1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
from pathlib import Path

from .data import (DEFAULT_CLASS_NAMES, Dataset, ScalingSpec, dataset_sha256, load_dataset,
                   save_dataset_csv, stratified_kfold, stratified_subsample)
from .ensemble import (BINARY_REGIMES, binary_outer_study, cascade_fit,
                       cross_validate_cascade, save_cascade)
from .errors import (ConfigError, DataError, NumericError, check_choice, check_count,
                     is_integer, is_real, json_object, read_text)
from .evaluate import FoldPipeline, cross_validate, grid_sweep, metrics, one_model
from .features import SCORER_SETTINGS, Selection, per_class_stats, select_k_best
from .models import MODELS, NetworkClassifier
from .nn import ARCHITECTURE_SETTINGS
from .report import RunReport, class_stats_section, feature_scores_section, format_percent
from .resample import METHOD_SETTINGS, ResamplePlan

PAPER_GRID = {
    "epochs": [10, 50],
    "learning_rate": [1e-5, 1e-4, 1e-3, 1e-2],
    "batch_size": [16, 32, 64],
}


def _defaults(cls, *unset: str) -> dict:
    """cls's constructor keywords and their defaults (None for a required
    one), in signature order, without `unset`."""
    return {name: None if param.default is param.empty else param.default
            for name, param in inspect.signature(cls).parameters.items()
            if name not in unset}


# cross_validate seeds every model, and a forest always bootstraps
_MODEL_DEFAULTS = {kind: _defaults(cls, "seed", "bootstrap") for kind, cls in MODELS.items()}

# Each config section's fields and their defaults. A select or resample
# section must name its method, and a select section its k; the select
# command alone defaults them (chi2, every feature its scorer ranks).
_SECTIONS = {
    "select": _defaults(Selection),
    "resample": _defaults(ResamplePlan),
    "network": _MODEL_DEFAULTS["network"],
    "booster": _MODEL_DEFAULTS["gbm"],
    "grid": PAPER_GRID,
}

# each settings class's choosing field, its name in messages, and its
# module's table of the settings that only some choices read
_READS = {NetworkClassifier: ("arch", "architecture", ARCHITECTURE_SETTINGS),
          ResamplePlan: ("method", "method", METHOD_SETTINGS),
          Selection: ("method", "method", SCORER_SETTINGS)}

# sweep's grid sets the epochs, learning rate and batch size of every cell, so
# its network takes only the other fields
_SWEEP_MODELS = {"network": {
    **{k: v for k, v in _MODEL_DEFAULTS["network"].items() if k not in PAPER_GRID},
    "arch": "vanilla"}}


def _opt(flag: str | None, path: str, default=None, **kwargs) -> tuple:
    """One option-table entry: (flag or None for a config-only field, config
    path, argparse keywords, default). The dotted path names a top-level field
    ("fraction"), a section field ("model.epochs") or a whole config-only
    section ("grid.*"); only a top-level field takes the default."""
    return flag, tuple(path.split(".")), kwargs, default


# argparse keywords of the model flags, by field; each flag is its field's
# name with dashes
_MODEL_FLAGS = {
    "arch": {"help": "network architecture"},
    "epochs": {"type": int},
    "learning_rate": {"type": float},
    "batch_size": {"type": int},
    "optimizer": {},
    "kernel_size": {"type": int, "help": "cnn2-family filter width"},
    "dropout": {"type": float},
    "n_rounds": {"type": int, "help": "boosting rounds"},
    "max_depth": {"type": int, "help": "tree depth limit"},
    "n_trees": {"type": int, "help": "forest size"},
}


def _model_opts(section: str, fields) -> tuple:
    """The model flags of `fields`, each setting `<section>.<field>`."""
    return tuple(_opt("--" + field.replace("_", "-"), f"{section}.{field}",
                      **_MODEL_FLAGS[field]) for field in fields)


# option groups; a command's table entry lists the groups it reads
_RUN = (_opt(None, "command"),
        _opt("--out", "out", help="output directory for this run's reports"))
_DATA = (
    _opt("--seed", "seed", type=int, help="master seed (or READMIT_SEED env)"),
    _opt("--data", "dataset", help="input CSV path"),
    _opt("--normalize", "normalize", True, action=argparse.BooleanOptionalAction,
         help="min-max scale features to [0,1] (default on)"),
    _opt("--fraction", "fraction", type=float, help="stratified subsample fraction in (0,1]"),
)

# the CPUs this process may run on: its affinity mask, where the platform has one
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_FOLDS = (
    _opt("--workers", "workers", _CPUS, type=int,
         help="fold-level parallelism (default: available cores)"),
    _opt("--folds", "folds", 10, type=int, help="cross-validation folds (default 10)"),
)
# select reads the fold fields only with compare_ks, so they default to None
# (not given) there, and _cmd_select gives them _FOLDS's defaults when it reads them
_SELECT_FOLDS = tuple((flag, path, kwargs, None) for flag, path, kwargs, _ in _FOLDS)
_CV = (*_FOLDS,
       _opt("--paper-mode", "paper_mode", False, action="store_true",
            help="fit scaling, selection and resampling on the whole dataset "
                 "before fold splitting instead of per training fold"))
_RESAMPLE = (
    _opt("--resample-method", "resample.method"),
    _opt("--k-neighbors", "resample.k_neighbors", type=int),
    _opt("--nearmiss-version", "resample.nearmiss_version", type=int),
)
_SELECT = (
    _opt("--select-method", "select.method"),
    _opt("--select-k", "select.k", type=int),
    _opt("--paper-exclusion", "select.paper_exclusion", action="store_true",
         help="also exclude zero-mean features from pearson scoring"),
)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as config errors (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _options(command: str) -> tuple:
    """Every entry of the option table that `command` reads."""
    return tuple(entry for group in (_RUN, *_COMMANDS[command][2]) for entry in group)


def build_parser() -> _Parser:
    parser = _Parser(prog="readmitlab",
                     description="Readmission-style tabular classification experiments.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for command, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for flag, _, kwargs, _ in _options(command):
            if flag:
                # an unset flag is None, so it leaves the config file's field alone
                p.add_argument(flag, default=None, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# config resolution


# what a config file's value must be for a section (dict), a switch (bool)
# and a flag of type int or float: (its description, its test)
_VALUES = {
    dict: ("a JSON object", lambda value: isinstance(value, dict)),
    bool: ("a JSON boolean", lambda value: isinstance(value, bool)),
    int: ("an integer", is_integer),
    float: ("a number", is_real),
}

# each top-level count and its least value; the fold commands read folds and
# workers, and every command but report a seed
_COUNTS = {"seed": 0, "folds": 2, "workers": 1}


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, Path]:
    """Merge defaults <- config file <- flags into one resolved config dict,
    in one pass over the option table: each option checks its config value,
    applies its flag, then sets its top-level field's default. In the config
    file, a section is a JSON object and a flag's top-level field holds what
    the flag would give (see _VALUES); null is allowed where the field has no
    default, and leaves it unset. Every count of _COUNTS is checked once the
    seed is known."""
    options = _options(command)
    fields = {path[0] for _, path, _, _ in options}
    cfg = {} if args.config is None else json_object(Path(args.config), ConfigError)
    for key in cfg:
        if key not in fields:
            raise ConfigError(f"invalid config field {key!r}")
    for flag, (name, *field), kwargs, default in options:
        kind = dict if field else bool if "action" in kwargs else kwargs.get("type")
        if name in cfg and kind in _VALUES and not (cfg[name] is None and default is None):
            noun, valid = _VALUES[kind]
            if not valid(cfg[name]):
                raise ConfigError(f"invalid config field {name!r}: "
                                  f"{json.dumps(cfg[name])} is not {noun}")
        # argparse keeps a flag's value under its name, dashes as underscores
        value = getattr(args, flag[2:].replace("-", "_")) if flag else None
        if value is not None:
            cfg[name] = {**(cfg.get(name) or {}), field[0]: value} if field else value
        if not field:
            cfg.setdefault(name, default)

    if "runs" in fields and not cfg["runs"]:
        raise ConfigError("report needs --runs (or config field 'runs')")
    if "seed" in fields and cfg["seed"] is None:
        env = os.environ.get("READMIT_SEED")
        if env is None:
            raise ConfigError("a seed is required: --seed, config 'seed', or READMIT_SEED")
        try:
            cfg["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"READMIT_SEED must be an integer, got {env!r}")
    for name, least in _COUNTS.items():
        if cfg.get(name) is not None and cfg[name] < least:
            raise ConfigError(f"invalid config field {name!r}: {cfg[name]} below {least}")
    if "dataset" in fields and not cfg["dataset"]:
        raise ConfigError("an input CSV is required: --data or config 'dataset'")

    cfg["command"] = command
    if cfg.get("fraction") is not None:
        fraction = float(cfg["fraction"])
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"invalid config field 'fraction': {fraction} outside (0, 1]")
        cfg["fraction"] = fraction

    if not cfg["out"]:
        raise ConfigError("an output directory is required: --out or config 'out'")
    out = Path(cfg.pop("out"))
    # out, or a directory it would be made under, already taken by a file
    for path in (out, *out.parents):
        if os.path.lexists(path) and not path.is_dir():
            raise ConfigError(f"invalid config field 'out': {path} is not a directory")
    return cfg, out


def _checked(name: str, fn, /, *args, **kwargs):
    """fn(*args, **kwargs): a setting's check, or the constructor of the class
    it configures. A ValueError or TypeError it raises is a config error
    naming config field `name`."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config field '{name}': {exc}") from None


def _merge(cfg: dict, name: str, defaults: dict, cls=None, **chosen) -> tuple[dict, object]:
    """(section, built): config section `name` over `defaults`, recorded in
    cfg for config.json with the `chosen` fields (a model's kind) ahead of
    it, and `cls` built from the section once (None without a cls), so a bad
    setting fails before any fold work. A field that `defaults` lacks and a
    ValueError or TypeError of the constructor are config errors naming the
    section. So is a setting that the chosen architecture or method does not
    read (by cls's _READS table) unless it holds its default: config.json
    echoes the whole section, so an echo reruns."""
    given = {k: v for k, v in (cfg.get(name) or {}).items() if k not in chosen}
    for field in sorted(given):
        if field not in defaults:
            raise ConfigError(f"invalid config field '{name}.{field}'")
    section = {**defaults, **given}
    cfg[name] = {**chosen, **section}
    built = None if cls is None else _checked(name, cls, **section)
    key, noun, table = _READS.get(cls, (None, None, {}))
    for field in sorted(set().union(*table.values()) - set(table.get(section.get(key), ()))):
        if section[field] != defaults[field]:
            raise ConfigError(f"invalid config field '{name}.{field}': "
                              f"{noun} {section[key]!r} does not read it")
    return section, built


def _once(field: str, entries: list) -> None:
    """An entry of list field `field` given twice, as JSON writes it (so 1,
    1.0 and true differ), is a config error naming it."""
    texts = [json.dumps(entry) for entry in entries]
    for i, text in enumerate(texts):
        if text in texts[:i]:
            raise ConfigError(f"invalid config field {field!r}: {text} is given twice")


def _names(cfg: dict, field: str, counts: bool = False) -> list | None:
    """Config field `field` as a list, recorded in cfg: a list passes
    through, a comma-separated string (a flag's or a config file's) is split
    at its commas (its decimal entries read as integers where the field holds
    `counts`), and None (not given) stays None. Anything else, an entry given
    twice, and an entry that is not a string (unless `counts`) are config
    errors naming the field."""
    value = cfg.get(field)
    if isinstance(value, str):
        value = [name.strip() for name in value.split(",") if name.strip()]
        value = [int(k) if counts and k.isdecimal() else k for k in value]
    elif value is not None and not isinstance(value, list):
        raise ConfigError(f"invalid config field {field!r}: {json.dumps(value)} is not a list")
    wrong = [entry for entry in value or () if not counts and not isinstance(entry, str)]
    if wrong:
        raise ConfigError(f"invalid config field {field!r}: {json.dumps(wrong[0])} "
                          "is not a string")
    _once(field, value or [])
    cfg[field] = value
    return value


def _model(cfg: dict, kind: str, table: dict = _MODEL_DEFAULTS) -> tuple[str, dict]:
    """The model section's kind (default `kind`), one of table's, and its
    parameters."""
    kind = (cfg.get("model") or {}).get("kind", kind)
    _checked("model.kind", check_choice, "model kind", kind, table)
    return kind, _merge(cfg, "model", table[kind], MODELS[kind], kind=kind)[0]


def _check_width(kind: str, params: dict, n_features: int) -> None:
    """Build a network model for rows of n_features values, so an input too
    short for its architecture is a data error before any fold work; and
    check a forest's features_per_split against them, a config error naming
    the model section."""
    if kind == "network":
        NetworkClassifier(**params).build(n_features)
    elif kind == "forest":
        _checked("model", MODELS[kind](**params).check_width, n_features)


def _resample_plan(cfg: dict) -> ResamplePlan | None:
    """The resample section's plan, or None without one."""
    if not cfg.get("resample"):
        cfg["resample"] = None
        return None
    return _merge(cfg, "resample", _SECTIONS["resample"], ResamplePlan)[1]


def _check_k(field: str, k: int, n_features: int) -> None:
    """A k outside 1..n_features is a config error naming `field`."""
    if not 1 <= k <= n_features:
        raise ConfigError(f"invalid config field {field!r}: k={k} must be at "
                          f"least 1 and at most the {n_features} features")


def _fit_all(cfg: dict, data: Dataset, pipeline: FoldPipeline, report: RunReport) -> Dataset:
    """data through pipeline fitted on all of its rows with the run seed: the
    whole-dataset protocol. The fit's notes go in the report."""
    data, _, notes = pipeline.fit(data, cfg["seed"])
    for note in notes:
        report.add_line(note)
    return data


def _folds(cfg: dict, data: Dataset, pipeline: FoldPipeline, report: RunReport):
    """(data, per-fold pipeline, folds) for a CV command. Paper mode fits the
    pipeline on all rows before splitting, so the folds then fit nothing."""
    if cfg["paper_mode"]:
        data = _fit_all(cfg, data, pipeline, report)
        if pipeline.resample is not None:
            report.add_line("paper mode: whole dataset resampled before fold splitting")
        pipeline = FoldPipeline()
    return data, pipeline, stratified_kfold(data.labels, cfg["folds"], cfg["seed"])


def _add_fold_notes(report: RunReport, result, prefix: str = "") -> None:
    for fold, notes in enumerate(result.fold_notes):
        for note in notes:
            report.add_line(f"{prefix}fold {fold}: {note}")


def _load_data(cfg: dict, report: RunReport) -> Dataset:
    """The input CSV's rows (subsampled by fraction), its hash and shape noted
    in the report. A command calls it once its settings are resolved, and
    keeps the only reference, so a copy it fits on all rows (paper mode's)
    frees the loaded matrix."""
    path = cfg["dataset"]
    digest = dataset_sha256(path)
    data = load_dataset(path, sha256=digest)
    report.add_line(f"dataset sha256: {digest}")
    report.add_line(f"dataset rows: {data.n_instances}, features: {data.n_features}")
    if cfg["fraction"] is not None:
        data = stratified_subsample(data, cfg["fraction"], cfg["seed"])
        report.add_line(f"stratified subsample: fraction {cfg['fraction']} "
                        f"-> {data.n_instances} rows")
    return data


def _add_class_balance(report: RunReport, title: str, data: Dataset) -> None:
    report.add_table(title, ["class", "name", "count", "share_pct"],
                     [[str(c), DEFAULT_CLASS_NAMES.get(c, str(c)), str(n),
                       format_percent(n / data.n_instances)]
                      for c, n in sorted(data.class_counts().items())])


def _add_cv_sections(report: RunReport, result, title: str) -> None:
    report.add_table(
        f"{title}: per-fold accuracy",
        ["fold", "accuracy"],
        [[str(i), format_percent(m.accuracy)] for i, m in enumerate(result.fold_metrics)],
    )
    report.add_metrics(f"{title}: mean over folds", result.mean_metrics)
    report.add_metrics(f"{title}: pooled", metrics(result.pooled_matrix))
    report.add_confusion(f"{title}: pooled confusion", result.pooled_matrix)


# ---------------------------------------------------------------------------
# subcommands: each resolves its settings, then loads the CSV (but report,
# which reads none), and fills the report that main() writes


def _cmd_ingest(cfg: dict, report: RunReport, out: Path) -> None:
    data = _load_data(cfg, report)
    _fit_all(cfg, data, FoldPipeline(cfg["normalize"]), report)  # for its scaling note
    _add_class_balance(report, "class balance", data)


def _cmd_stats(cfg: dict, report: RunReport, out: Path) -> None:
    wanted = _names(cfg, "features")
    data = _load_data(cfg, report)
    if wanted:
        missing = [name for name in wanted if name not in data.feature_names]
        if missing:
            raise DataError(f"unknown feature name {missing[0]!r}")
        columns = [data.feature_names.index(name) for name in wanted]
    else:
        columns = None
    data = _fit_all(cfg, data, FoldPipeline(cfg["normalize"]), report)
    report.add_table("per-class feature statistics",
                     *class_stats_section(per_class_stats(data, features=columns)))


def _cmd_select(cfg: dict, report: RunReport, out: Path) -> None:
    compare_ks = cfg["compare_ks"] = _names(cfg, "compare_ks", counts=True) or None
    if not compare_ks:
        for field in ("model", "workers", "folds"):
            if cfg.pop(field, None) is not None:
                raise ConfigError(f"invalid config field '{field}': "
                                  "select reads it only with 'compare_ks'")
    k_given = "k" in (cfg.get("select") or {})
    # the default k, every feature the scorer ranks, waits for the rows; 1 stands in
    selection = _merge(cfg, "select", {**_SECTIONS["select"], "method": "chi2", "k": 1},
                       Selection)[1]
    if compare_ks:
        for _, (field,), _, default in _FOLDS:
            if cfg[field] is None:
                cfg[field] = default
        kind, params = _model(cfg, "gbm")
        for kk in compare_ks:
            _checked("compare_ks", check_count, "compare_ks", kk, 1)
    data = _load_data(cfg, report)
    _check_k("select.k", selection.k, data.n_features)
    table = selection.scores(_fit_all(cfg, data, FoldPipeline(cfg["normalize"]), report))
    ranked = int((table.ranks > 0).sum())  # the scorer excludes constant columns
    if ranked == 0:
        raise DataError(f"{selection.method} ranks none of the {data.n_features} features")
    if not k_given:  # every feature the scorer ranks
        selection = dataclasses.replace(selection, k=ranked)
        cfg["select"] = dataclasses.asdict(selection)
    report.add_table(f"{selection.method} scores", *feature_scores_section(table))
    keep = select_k_best(table, selection.k)
    report.add_line(f"top {selection.k} by {selection.method}: "
                    + ", ".join(data.feature_names[i] for i in keep))

    if not compare_ks:
        return
    folds = stratified_kfold(data.labels, cfg["folds"], cfg["seed"])
    # every k is checked before the first cross-validation; no fold can score
    # more features than all rows can
    for kk in compare_ks:
        _check_k("compare_ks", kk, data.n_features)
        select_k_best(table, kk)
        _check_width(kind, params, kk)
    comparison = []
    for kk in compare_ks:
        pipeline = FoldPipeline(cfg["normalize"], dataclasses.replace(selection, k=kk))
        (result,) = cross_validate(data, folds, one_model(MODELS[kind], **params),
                                   pipeline=pipeline, workers=cfg["workers"])
        _add_fold_notes(report, result, f"k={kk} ")
        comparison.append([str(kk), format_percent(result.mean_metrics.accuracy),
                           format_percent(result.mean_metrics.macro_f)])
    report.add_table(f"{kind} accuracy by feature count",
                     ["k", "mean_accuracy", "mean_macro_f"], comparison)


def _cmd_resample(cfg: dict, report: RunReport, out: Path) -> None:
    plan = _resample_plan(cfg)
    if plan is None:
        raise ConfigError("resample needs a plan: --resample-method or config 'resample'")
    data = _load_data(cfg, report)
    _add_class_balance(report, "class balance before", data)
    resampled = _fit_all(cfg, data, FoldPipeline(cfg["normalize"], resample=plan), report)
    _add_class_balance(report, "class balance after", resampled)
    if cfg["write_csv"]:
        out.mkdir(parents=True, exist_ok=True)
        save_dataset_csv(resampled, out / "resampled.csv")


def _cmd_train(cfg: dict, report: RunReport, out: Path) -> None:
    selection = (_merge(cfg, "select", _SECTIONS["select"], Selection)[1]
                 if cfg.get("select") else None)
    if selection is None:
        cfg["select"] = None
    pipeline = FoldPipeline(cfg["normalize"], selection, _resample_plan(cfg))
    kind, params = _model(cfg, "network")
    data = _load_data(cfg, report)
    if selection is not None:
        _check_k("select.k", selection.k, data.n_features)
    _check_width(kind, params, data.n_features if selection is None else selection.k)
    data, pipeline, folds = _folds(cfg, data, pipeline, report)
    (result,) = cross_validate(data, folds, one_model(MODELS[kind], **params),
                               pipeline=pipeline, workers=cfg["workers"])
    _add_fold_notes(report, result)
    _add_cv_sections(report, result, f"{kind} cross-validation")


def _cmd_sweep(cfg: dict, report: RunReport, out: Path) -> None:
    pipeline = FoldPipeline(cfg["normalize"], resample=_resample_plan(cfg))
    kind, fixed = _model(cfg, "network", _SWEEP_MODELS)
    grid = _merge(cfg, "grid", _SECTIONS["grid"])[0]
    for axis, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"invalid config field 'grid.{axis}': "
                              f"{json.dumps(values)} is not a nonempty list")
        _once(f"grid.{axis}", values)
        # each value builds once here, so a bad one fails before any fold work
        for value in values:
            _checked(f"grid.{axis}", NetworkClassifier, **{**fixed, axis: value})

    data = _load_data(cfg, report)
    _check_width(kind, fixed, data.n_features)
    data, pipeline, folds = _folds(cfg, data, pipeline, report)
    ranked = grid_sweep(data, folds, functools.partial(NetworkClassifier, **fixed), grid,
                        pipeline=pipeline, workers=cfg["workers"])
    _add_fold_notes(report, ranked[0][1])
    # repr writes each int as str does, and each float exactly
    table = [["*" if i == 0 else "", *map(repr, cell.values()),
              format_percent(result.mean_metrics.accuracy),
              format_percent(result.mean_metrics.macro_f)]
             for i, (cell, result) in enumerate(ranked)]
    report.add_table("grid results, best first",
                     ["best", *grid, "mean_accuracy", "mean_macro_f"], table)
    best, best_result = ranked[0]
    report.add_line("best combination: "
                    + " ".join(f"{name}={value!r}" for name, value in best.items())
                    + f" mean accuracy {format_percent(best_result.mean_metrics.accuracy)}")


def _cmd_cascade(cfg: dict, report: RunReport, out: Path) -> None:
    pipeline = FoldPipeline(cfg["normalize"], resample=_resample_plan(cfg))
    network = _merge(cfg, "network", _SECTIONS["network"], MODELS["network"])[0]
    booster = _merge(cfg, "booster", _SECTIONS["booster"], MODELS["gbm"])[0]
    data = _load_data(cfg, report)
    _check_width("network", network, data.n_features)
    # the saved cascade is fitted on all rows, in both modes scaled by their
    # own minima and maxima: the raw rows', before paper mode maps them
    scaling = ScalingSpec.fit(data) if cfg["save_model"] and cfg["normalize"] else None
    data, pipeline, folds = _folds(cfg, data, pipeline, report)
    network_result, cascade_result, booster_result = cross_validate_cascade(
        data, folds, network, booster, pipeline=pipeline, workers=cfg["workers"])
    _add_fold_notes(report, network_result)

    _add_cv_sections(report, network_result, "stage 1 network")
    _add_cv_sections(report, booster_result, "stage 2 booster (outer classes)")
    _add_cv_sections(report, cascade_result, "cascade")

    report.add_line("cascade cross-validated accuracy: "
                    f"{format_percent(cascade_result.mean_metrics.accuracy)} "
                    f"vs stage-1 network alone: "
                    f"{format_percent(network_result.mean_metrics.accuracy)}")

    if cfg["save_model"]:
        train = _fit_all(cfg, data, pipeline, report)
        model = cascade_fit(train, network, booster, seed=cfg["seed"])
        save_cascade(model, out / "cascade_model", scaling)
        report.add_line("fitted cascade saved under cascade_model/")


def _cmd_binary_study(cfg: dict, report: RunReport, out: Path) -> None:
    regimes = tuple(_names(cfg, "regimes") or BINARY_REGIMES)
    for regime in regimes:
        _checked("regimes", check_choice, "regime", regime, BINARY_REGIMES)
    cfg["regimes"] = list(regimes)
    booster = _merge(cfg, "booster", _SECTIONS["booster"], MODELS["gbm"])[0]
    data = _load_data(cfg, report)
    results = binary_outer_study(data, seed=cfg["seed"], k_folds=cfg["folds"],
                                 regimes=regimes, booster_config=booster,
                                 pipeline=FoldPipeline(cfg["normalize"]),
                                 workers=cfg["workers"])
    for regime in regimes:
        _add_fold_notes(report, results[regime], f"{regime} ")
    summary = [[regime,
                format_percent(results[regime].mean_metrics.accuracy),
                format_percent(results[regime].mean_metrics.macro_f)]
               for regime in regimes]
    report.add_table("binary 0-vs-2 study", ["regime", "mean_accuracy", "mean_macro_f"],
                     summary)
    for regime in regimes:
        report.add_confusion(f"{regime}: pooled confusion", results[regime].pooled_matrix)


def _cmd_report(cfg: dict, report: RunReport, out: Path) -> None:
    for run_dir in _names(cfg, "runs"):
        run_cfg = json_object(Path(run_dir) / "config.json", DataError)
        report.add_line(f"--- run {run_dir} (command: {run_cfg.get('command', '?')}) ---")
        for line in read_text(Path(run_dir) / "report.txt", DataError).splitlines():
            report.add_line(line)


# Each command's function, help text and option groups. A command offers the
# flags of _RUN and of its groups, and a config file may set their fields and
# nothing else: these are all the options it reads.
_COMMANDS = {
    "ingest": (_cmd_ingest, "load a CSV and report its shape and class balance", (_DATA,)),
    "stats": (_cmd_stats, "per-class feature means and variances", (_DATA, (
        _opt("--features", "features", help="comma-separated feature names (default: all)"),
    ))),
    "select": (_cmd_select, "univariate feature scores and top-k selection", (
        _DATA, _SELECT, _SELECT_FOLDS, (_opt(None, "compare_ks"), _opt(None, "model.*")),
    )),
    "resample": (_cmd_resample, "rebalance classes and report the counts", (
        _DATA, _RESAMPLE,
        (_opt("--write-csv", "write_csv", False, action="store_true",
              help="write the resampled rows as resampled.csv in the output dir"),),
    )),
    "train": (_cmd_train, "cross-validate one model configuration", (
        _DATA, _CV, (_opt("--model", "model.kind", help="model kind"),),
        _model_opts("model", _MODEL_FLAGS), _RESAMPLE, _SELECT,
    )),
    "sweep": (_cmd_sweep, "grid-search epochs x learning rate x batch size", (
        _DATA, _CV, _model_opts("model", _SWEEP_MODELS["network"]), _RESAMPLE,
        (_opt(None, "grid.*"),),
    )),
    "cascade": (_cmd_cascade, "network + binary booster two-stage pipeline", (
        _DATA, _CV, _model_opts("network", _SECTIONS["network"]),
        _model_opts("booster", ("n_rounds", "max_depth")), _RESAMPLE,
        (_opt("--save-model", "save_model", False, action="store_true",
              help="persist the cascade fitted on the full dataset"),),
    )),
    "binary-study": (_cmd_binary_study,
                     "outer-class binary problem under three balance regimes", (
        _DATA, _FOLDS,
        (_opt("--regimes", "regimes",
              help="comma-separated subset of " + ",".join(BINARY_REGIMES)),
         _opt(None, "booster.*")),
    )),
    "report": (_cmd_report, "collate the reports of previous runs", (
        (_opt("--runs", "runs", nargs="+", help="run directories to collate"),),
    )),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a subcommand is required; see --help")
        cfg, out = _resolve(args, args.command)
        report = RunReport(args.command, cfg)
        _COMMANDS[args.command][0](cfg, report, out)
        report.write(out)
        print(report.render_text())
        return 0
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
