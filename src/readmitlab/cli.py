"""Config-driven experiment commands.

Subcommands: ingest, stats, select, resample, train, sweep, cascade,
binary-study, report. Options come from a JSON config file (--config) with
command-line flags overriding individual fields. One option table, _COMMANDS,
gives each command its option groups; each entry names a flag (or none, for a
config-only field), the config field it sets, and a top-level field's
default. From it come the parser, the flag-to-field routing, the defaults and
the config-field check: a command offers only the flags it reads, and any
other config field is a config error. Every run needs an output directory;
every command but report also needs a seed (--seed flag, config "seed", or
the READMIT_SEED environment variable) and an input CSV (--data or config
"dataset"). A run writes three files: config.json (the resolved config echo),
report.tsv, and report.txt. Reports embed the input CSV's content hash and
never embed timestamps or the output path, so identical configs produce
byte-identical reports.

Config sections' fields and defaults are _SECTIONS (select, resample,
network, booster, grid) and _MODEL_DEFAULTS (model, per kind). A model,
network, booster or resample section's fields and defaults are the
constructor keywords of its class (NetworkClassifier,
GradientBoostedClassifier, RandomForest, ResamplePlan), read by _defaults;
none is restated here. A model section is resolved by building its model
once, and sweep builds each grid cell once, so a bad setting is a config
error before any fold work. sweep runs the grid (the paper's, PAPER_GRID,
unless a "grid" section narrows it), so its model section has no epochs,
learning_rate or batch_size. cascade has no model section: its network
flags set the "network" section and --n-rounds and --max-depth the
"booster" section; the booster's learning rate is set only by the
"booster" section.

Exit codes: 0 success, 1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import sys
from pathlib import Path

from .data import (DEFAULT_CLASS_NAMES, Dataset, dataset_sha256, load_dataset,
                   min_max_normalize, save_dataset_csv, stratified_kfold,
                   stratified_subsample)
from .ensemble import (BINARY_REGIMES, binary_outer_study, cascade_fit,
                       cross_validate_cascade, save_cascade)
from .errors import ConfigError, DataError, NumericError
from .evaluate import cross_validate, grid_sweep, metrics
from .features import SCORERS, per_class_stats, select_k_best
from .models import MODEL_KINDS, MODELS, NetworkClassifier, make_builder
from .nn import ARCHITECTURES
from .optim import OPTIMIZERS
from .report import RunReport, class_stats_section, format_percent
from .resample import METHODS as RESAMPLE_METHODS
from .resample import ResamplePlan, apply_plan

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


# the run seed seeds every model, and a forest always bootstraps
_MODEL_DEFAULTS = {kind: _defaults(cls, "seed", "bootstrap") for kind, cls in MODELS.items()}

# Each config section's fields and their defaults. A select or resample
# section must name its method, and a select section its k; the select
# command alone defaults them (chi2, every feature).
_SECTIONS = {
    "select": {"method": None, "k": None, "paper_exclusion": False},
    "resample": _defaults(ResamplePlan, "seed"),
    "network": _MODEL_DEFAULTS["network"],
    "booster": _MODEL_DEFAULTS["gbm"],
    "grid": PAPER_GRID,
}

# sweep's grid sets the epochs, learning rate and batch size of every cell, so
# its network takes only the other fields
_SWEEP_MODELS = {**_MODEL_DEFAULTS, "network": {
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
    "arch": {"choices": ARCHITECTURES, "help": "network architecture"},
    "epochs": {"type": int},
    "learning_rate": {"type": float},
    "batch_size": {"type": int},
    "optimizer": {"choices": tuple(OPTIMIZERS)},
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
            help="resample the whole dataset before fold splitting "
                 "instead of per training fold"))
_RESAMPLE = (
    _opt("--resample-method", "resample.method", choices=RESAMPLE_METHODS),
    _opt("--k-neighbors", "resample.k_neighbors", type=int),
    _opt("--nearmiss-version", "resample.nearmiss_version", type=int, choices=(1, 2, 3)),
)
_SELECT = (
    _opt("--select-method", "select.method", choices=sorted(SCORERS)),
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


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return payload


def _resolve(args: argparse.Namespace, command: str) -> tuple[dict, Path]:
    """Merge defaults <- config file <- flags into one resolved config dict."""
    options = _options(command)
    fields = {path[0] for _, path, _, _ in options}
    cfg = _load_config_file(args.config)
    for key in cfg:
        if key not in fields:
            raise ConfigError(f"invalid config field {key!r}")

    for flag, path, _, _ in options:
        # argparse keeps a flag's value under its name, dashes as underscores
        value = getattr(args, flag[2:].replace("-", "_")) if flag else None
        if value is None:
            continue
        *section, field = path
        target = cfg
        if section:
            target = cfg[section[0]] = dict(cfg.get(section[0]) or {})
        target[field] = value

    if "runs" in fields and not cfg.get("runs"):
        raise ConfigError("report needs --runs (or config field 'runs')")
    if "seed" in fields:
        if "seed" not in cfg:
            env = os.environ.get("READMIT_SEED")
            if env is None:
                raise ConfigError("a seed is required: --seed, config 'seed', or READMIT_SEED")
            try:
                cfg["seed"] = int(env)
            except ValueError:
                raise ConfigError(f"READMIT_SEED must be an integer, got {env!r}")
        cfg["seed"] = int(cfg["seed"])
    if "dataset" in fields and not cfg.get("dataset"):
        raise ConfigError("an input CSV is required: --data or config 'dataset'")

    for _, path, _, default in options:
        if len(path) == 1:
            cfg.setdefault(path[0], default)
    cfg["command"] = command
    if cfg.get("fraction") is not None:
        fraction = float(cfg["fraction"])
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"invalid config field 'fraction': {fraction} outside (0, 1]")
        cfg["fraction"] = fraction
    if cfg.get("workers") is not None:
        cfg["workers"] = int(cfg["workers"])
        if cfg["workers"] < 1:
            raise ConfigError(f"invalid config field 'workers': {cfg['workers']} below 1")
    if cfg.get("folds") is not None:
        cfg["folds"] = int(cfg["folds"])

    out = cfg.pop("out")
    if not out:
        raise ConfigError("an output directory is required: --out or config 'out'")
    return cfg, Path(out)


def _merge(name: str, given, defaults: dict, model=None) -> dict:
    """Config section `given` (None for absent) over `defaults`; a field that
    `defaults` lacks is a config error. A model section also builds its
    `model` class once, so a bad setting fails before any fold work."""
    given = dict(given or {})
    for field in sorted(given):
        if field not in defaults:
            raise ConfigError(f"invalid config field '{name}.{field}'")
    section = {**defaults, **given}
    if model is not None:
        model(**section)
    return section


def _names(value):
    """A comma-separated string, from a flag or a config file, as a list of
    names; a list passes through."""
    if isinstance(value, str):
        return [name.strip() for name in value.split(",") if name.strip()]
    return value


def _model(cfg: dict, kind: str, table: dict = _MODEL_DEFAULTS) -> tuple[str, dict]:
    """The model section's kind (default `kind`) and parameters."""
    section = dict(cfg.get("model") or {})
    kind = section.pop("kind", kind)
    if kind not in MODELS:
        raise ConfigError(f"invalid config field 'model.kind': {kind!r}")
    params = _merge("model", section, table[kind], MODELS[kind])
    cfg["model"] = {"kind": kind, **params}
    return kind, params


def _model_section(cfg: dict, name: str, model) -> dict:
    """Resolve the `name` section (network or booster) of a `model`."""
    cfg[name] = _merge(name, cfg.get(name), _SECTIONS[name], model)
    return cfg[name]


def _resample_plan(cfg: dict) -> ResamplePlan | None:
    if not cfg.get("resample"):
        cfg["resample"] = None
        return None
    section = _merge("resample", cfg["resample"], _SECTIONS["resample"])
    if section["method"] is None:
        raise ConfigError("invalid config field 'resample': missing 'method'")
    try:
        plan = ResamplePlan(seed=cfg["seed"], **section)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config field 'resample': {exc}")
    # the plan's seed is the run seed, echoed once at the top level
    cfg["resample"] = {k: v for k, v in plan.to_dict().items() if k != "seed"}
    return plan


def _scores(cfg: dict, data: Dataset, **defaults):
    """Resolve the select section and score every feature by its method."""
    section = _merge("select", cfg.get("select"), {**_SECTIONS["select"], **defaults})
    method, k = section["method"], section["k"]
    if method not in SCORERS:
        raise ConfigError(f"invalid config field 'select.method': {method!r}")
    if k is None:
        raise ConfigError("invalid config field 'select': missing 'k'")
    section = cfg["select"] = {"method": method, "k": int(k),
                               "paper_exclusion": bool(section["paper_exclusion"])}
    if method == "pearson":
        return section, SCORERS[method](data, paper_exclusion=section["paper_exclusion"])
    return section, SCORERS[method](data)


def _folds(cfg: dict, data: Dataset, plan: ResamplePlan | None, report: RunReport):
    """(data, per-fold plan, folds) for a CV command. Paper mode resamples the
    whole dataset before splitting, so the folds then resample nothing."""
    if cfg["paper_mode"] and plan is not None:
        data = apply_plan(data, plan)
        plan = None
        report.add_line("paper mode: whole dataset resampled before fold splitting")
    return data, plan, stratified_kfold(data.labels, cfg["folds"], cfg["seed"])


def _load_data(cfg: dict, report: RunReport) -> Dataset:
    path = cfg["dataset"]
    data = load_dataset(path)
    report.add_line(f"dataset sha256: {dataset_sha256(path)}")
    report.add_line(f"dataset rows: {data.n_instances}, features: {data.n_features}")
    if cfg["fraction"] is not None:
        data = stratified_subsample(data, cfg["fraction"], cfg["seed"])
        report.add_line(f"stratified subsample: fraction {cfg['fraction']} "
                        f"-> {data.n_instances} rows")
    if cfg["normalize"]:
        data, scaling = min_max_normalize(data)
        if scaling.degenerate_columns:
            report.add_line("constant features scaled to zero: "
                            + ", ".join(data.feature_names[i]
                                        for i in scaling.degenerate_columns))
    return data


def _class_counts_rows(data: Dataset) -> list[list[str]]:
    counts = data.class_counts()
    total = data.n_instances
    return [[str(c), DEFAULT_CLASS_NAMES.get(c, str(c)), str(n),
             format_percent(n / total)]
            for c, n in sorted(counts.items())]


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
# subcommands: each fills the report that main() writes


def _cmd_ingest(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    report.add_table("class balance", ["class", "name", "count", "share_pct"],
                     _class_counts_rows(data))


def _cmd_stats(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    wanted = cfg["features"] = _names(cfg.get("features"))
    if wanted:
        missing = [name for name in wanted if name not in data.feature_names]
        if missing:
            raise DataError(f"unknown feature name {missing[0]!r}")
        columns = [data.feature_names.index(name) for name in wanted]
    else:
        columns = None
    stats = per_class_stats(data, features=columns)
    header, rows = class_stats_section(stats.feature_names, stats.classes,
                                       stats.means, stats.variances)
    report.add_table("per-class feature statistics", header, rows)


def _cmd_select(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    compare_ks = [int(k) for k in _names(cfg.get("compare_ks")) or ()]
    cfg["compare_ks"] = compare_ks or None
    if not compare_ks:
        for field in ("model", "workers", "folds"):
            if cfg.pop(field, None) is not None:
                raise ConfigError(f"invalid config field '{field}': "
                                  "select reads it only with 'compare_ks'")
    section, table = _scores(cfg, data, method="chi2", k=data.n_features)
    method, k = section["method"], section["k"]
    rows = []
    for i, name in enumerate(table.feature_names):
        if i in table.excluded:
            rows.append([name, "excluded", "-", table.excluded[i]])
        else:
            rows.append([name, repr(float(table.scores[i])), str(int(table.ranks[i])), ""])
    report.add_table(f"{method} scores", ["feature", "score", "rank", "note"], rows)
    keep = select_k_best(table, k)
    report.add_line(f"top {k} by {method}: "
                    + ", ".join(data.feature_names[i] for i in keep))

    if not compare_ks:
        return
    for _, (field,), _, default in _FOLDS:
        if cfg[field] is None:
            cfg[field] = default
    kind, params = _model(cfg, "gbm")
    folds = stratified_kfold(data.labels, cfg["folds"], cfg["seed"])
    comparison = []
    for kk in compare_ks:
        subset = data.select_features(select_k_best(table, kk))
        (result,) = cross_validate(subset, folds, make_builder(kind, cfg["seed"], **params),
                                   workers=cfg["workers"])
        comparison.append([str(kk), format_percent(result.mean_metrics.accuracy),
                           format_percent(result.mean_metrics.macro_f)])
    report.add_table(f"{kind} accuracy by feature count",
                     ["k", "mean_accuracy", "mean_macro_f"], comparison)


def _cmd_resample(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    plan = _resample_plan(cfg)
    if plan is None:
        raise ConfigError("resample needs a plan: --resample-method or config 'resample'")
    report.add_table("class balance before", ["class", "name", "count", "share_pct"],
                     _class_counts_rows(data))
    resampled = apply_plan(data, plan)
    report.add_table("class balance after", ["class", "name", "count", "share_pct"],
                     _class_counts_rows(resampled))
    cfg["write_csv"] = bool(cfg.get("write_csv"))
    if cfg["write_csv"]:
        out.mkdir(parents=True, exist_ok=True)
        save_dataset_csv(resampled, out / "resampled.csv")


def _cmd_train(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    if cfg.get("select"):
        section, table = _scores(cfg, data)
        keep = select_k_best(table, section["k"])
        report.add_line(f"selected {len(keep)} features by {section['method']}: "
                        + ", ".join(data.feature_names[i] for i in keep))
        data = data.select_features(keep)
    else:
        cfg["select"] = None
    plan = _resample_plan(cfg)
    kind, params = _model(cfg, "network")
    data, plan, folds = _folds(cfg, data, plan, report)
    (result,) = cross_validate(data, folds, make_builder(kind, cfg["seed"], **params),
                               resample_plan=plan, workers=cfg["workers"])
    _add_cv_sections(report, result, f"{kind} cross-validation")


def _cmd_sweep(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    plan = _resample_plan(cfg)
    kind, fixed = _model(cfg, "network", _SWEEP_MODELS)
    if kind != "network":
        raise ConfigError("sweep drives network training; model.kind must be 'network'")
    grid = cfg["grid"] = {axis: list(values) for axis, values in
                          _merge("grid", cfg.get("grid"), _SECTIONS["grid"]).items()}

    def build(fold: int, epochs: int, lr: float, batch: int) -> NetworkClassifier:
        return NetworkClassifier(seed=cfg["seed"] + fold, epochs=epochs,
                                 learning_rate=lr, batch_size=batch, **fixed)

    # every cell builds once here, so a bad one fails before any fold work
    for cell in itertools.product(grid["epochs"], grid["learning_rate"], grid["batch_size"]):
        build(0, *cell)
    data, plan, folds = _folds(cfg, data, plan, report)
    rows = grid_sweep(data, folds, build, tuple(grid["epochs"]),
                      tuple(grid["learning_rate"]), tuple(grid["batch_size"]),
                      resample_plan=plan, workers=cfg["workers"])
    table = []
    for i, row in enumerate(rows):
        table.append([
            "*" if i == 0 else "",
            str(row.epochs), repr(row.learning_rate), str(row.batch_size),
            format_percent(row.accuracy),
            format_percent(row.result.mean_metrics.macro_f),
            row.note,
        ])
    report.add_table("grid results, best first",
                     ["best", "epochs", "learning_rate", "batch_size",
                      "mean_accuracy", "mean_macro_f", "note"], table)
    best = rows[0]
    report.add_line(f"best combination: epochs={best.epochs} "
                    f"learning_rate={best.learning_rate!r} batch_size={best.batch_size} "
                    f"mean accuracy {format_percent(best.accuracy)}")


def _cmd_cascade(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    plan = _resample_plan(cfg)
    network = _model_section(cfg, "network", MODELS["network"])
    booster = _model_section(cfg, "booster", MODELS["gbm"])
    data, plan, folds = _folds(cfg, data, plan, report)
    network_result, cascade_result, booster_result = cross_validate_cascade(
        data, folds, network, booster,
        resample_plan=plan, seed=cfg["seed"], workers=cfg["workers"])

    _add_cv_sections(report, network_result, "stage 1 network")
    _add_cv_sections(report, booster_result, "stage 2 booster (outer classes)")
    _add_cv_sections(report, cascade_result, "cascade")

    report.add_line("cascade cross-validated accuracy: "
                    f"{format_percent(cascade_result.mean_metrics.accuracy)} "
                    f"vs stage-1 network alone: "
                    f"{format_percent(network_result.mean_metrics.accuracy)}")

    cfg["save_model"] = bool(cfg.get("save_model"))
    if cfg["save_model"]:
        model = cascade_fit(data, network, booster, resample_plan=plan, seed=cfg["seed"])
        save_cascade(model, out / "cascade_model")
        report.add_line("fitted cascade saved under cascade_model/")


def _cmd_binary_study(cfg: dict, data: Dataset, report: RunReport, out: Path) -> None:
    regimes = tuple(_names(cfg.get("regimes")) or BINARY_REGIMES)
    for regime in regimes:
        if regime not in BINARY_REGIMES:
            raise ConfigError(f"invalid config field 'regimes': {regime!r}")
    cfg["regimes"] = list(regimes)
    booster = _model_section(cfg, "booster", MODELS["gbm"])
    results = binary_outer_study(data, seed=cfg["seed"], k_folds=cfg["folds"],
                                 regimes=regimes, booster_config=booster,
                                 workers=cfg["workers"])
    summary = [[regime,
                format_percent(results[regime].mean_metrics.accuracy),
                format_percent(results[regime].mean_metrics.macro_f)]
               for regime in regimes]
    report.add_table("binary 0-vs-2 study", ["regime", "mean_accuracy", "mean_macro_f"],
                     summary)
    for regime in regimes:
        report.add_confusion(f"{regime}: pooled confusion", results[regime].pooled_matrix)


def _cmd_report(cfg: dict, data: None, report: RunReport, out: Path) -> None:
    cfg["runs"] = _names(cfg["runs"])
    for run_dir in cfg["runs"]:
        run_path = Path(run_dir)
        config_path = run_path / "config.json"
        text_path = run_path / "report.txt"
        if not config_path.exists() or not text_path.exists():
            raise DataError(f"{run_dir}: not a run directory (config.json/report.txt missing)")
        try:
            run_cfg = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"{config_path} is not valid JSON: {exc}")
        if not isinstance(run_cfg, dict):
            raise DataError(f"{config_path} must contain a JSON object")
        report.add_line(f"--- run {run_dir} (command: {run_cfg.get('command', '?')}) ---")
        for line in text_path.read_text().splitlines():
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
        (_opt("--write-csv", "write_csv", action="store_true",
              help="write the resampled rows as resampled.csv in the output dir"),),
    )),
    "train": (_cmd_train, "cross-validate one model configuration", (
        _DATA, _CV, (_opt("--model", "model.kind", choices=MODEL_KINDS, help="model kind"),),
        _model_opts("model", _MODEL_FLAGS), _RESAMPLE, _SELECT,
    )),
    "sweep": (_cmd_sweep, "grid-search epochs x learning rate x batch size", (
        _DATA, _CV, _model_opts("model", _SWEEP_MODELS["network"]), _RESAMPLE,
        (_opt(None, "grid.*"),),
    )),
    "cascade": (_cmd_cascade, "network + binary booster two-stage pipeline", (
        _DATA, _CV, _model_opts("network", _SECTIONS["network"]),
        _model_opts("booster", ("n_rounds", "max_depth")), _RESAMPLE,
        (_opt("--save-model", "save_model", action="store_true",
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
        # the command gets the only reference to the dataset, so a copy it
        # narrows (train's selected features) frees the full matrix
        _COMMANDS[args.command][0](cfg, _load_data(cfg, report) if "dataset" in cfg
                                   else None, report, out)
        report.write(out)
        print(report.render_text())
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
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
