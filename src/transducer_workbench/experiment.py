"""Experiment orchestration: a typed config file drives the stages of
`STAGES` (generate -> train -> LM training -> decode -> fusion/scoring ->
sweep -> ablations -> report), with every intermediate artifact written
under a run directory so reported numbers can be re-derived (`verify`) from
files alone. `run_experiment` walks the table; the stagewise CLI runs one
entry against a run directory and loads what the earlier entries left
there. `ARTIFACTS` lists the files of a run directory.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .augment import NoiseInjectConfig, SpecAugmentConfig, SwitchoutConfig
from .data import (
    Alphabet,
    Dataset,
    SyntheticTaskConfig,
    Utterance,
    append_deltas,
    atomic_write,
    attach_transcripts,
    generate_synthetic_task,
    read_features,
    read_transcripts,
    sample_text_corpus,
    write_features,
    write_transcripts,
)
from .decoding import MERGES, alsd_beam, alsd_cap, greedy_decode
from .errors import ConfigError, ContractViolation, TrainingDiverged, WorkbenchError
from .fusion import (
    DEFAULT_LAM_GRID,
    DEFAULT_MU_GRID,
    DEFAULT_RHO_GRID,
    CombinationWeights,
    FusionWeights,
    NBestRecord,
    cached_nbests,
    combine_rescore,
    read_nbest,
    top1_wer,
    tune_weights,
    write_nbest,
)
from .joint import JOINT_MODES
from .model import (
    ModelConfig,
    init_model,
    load_char_lm,
    load_checkpoint,
    load_encoder_init,
    save_char_lm,
    save_checkpoint,
)
from .networks import (CharLMConfig, EncoderConfig, PredictionConfig, PrefixStates,
                       init_char_lm_params, lm_score)
from .numerics import RandomStream
from .scoring import compute_wer
from .training import (
    OPTIMIZERS,
    SCHEDULES,
    OptimizerConfig,
    ScheduleConfig,
    TrainingRecipe,
    TrainResult,
    train,
    train_char_lm,
)

_BOOL = "bool"
_INT = "int"
_FLOAT = "float"
_STR = "str"
_FLOATS = "float_list"
_STRS = "str_list"

# The scoring conditions, in report order.
CONDITIONS = ("no_lm", "shallow", "density_ratio", "combination")

# The character LMs: one on the training transcripts, one on those plus
# the external text.
LM_NAMES = ("source", "external")

# Each ablation trains from a copy of the config with one [training] key set
# to the value that turns its recipe part off.
ABLATIONS = {
    "no_switchout": ("switchout", False),
    "no_sequence_noise": ("sequence_noise", False),
    "no_specaugment": ("specaugment", False),
    "no_dropconnect": ("dropconnect_rate", 0.0),
    "no_speed_tempo": ("speed_tempo_replicas", False),
}

# One entry per recognized key: (type, default, domain). A key's domain is
# the set of values the stages run with: for a number, an interval, where
# "(" and ")" exclude their bound; for a string, the tuple of its allowed
# values; for a list, `Items`: each element's domain, and whether the list
# may be empty. A list of names (modes, conditions, ablations) names each
# entry once. None allows any value of the type, and every float must be
# finite. Unknown sections or keys in a config file are errors.
Items = NamedTuple("Items", [("each", object), ("empty", bool)])
CONFIG_SCHEMA = {
    "task": {
        "num_labels": (_INT, 8, "[1, 26]"),
        "feature_dim": (_INT, 10, "[1, inf)"),
        "frames_per_symbol_min": (_INT, 2, "[1, inf)"),
        "frames_per_symbol_max": (_INT, 4, "[1, inf)"),
        "noise_level": (_FLOAT, 0.3, "[0, inf)"),
        "length_min": (_INT, 3, "[1, inf)"),
        "length_max": (_INT, 8, "[1, inf)"),
        "train_size": (_INT, 500, "[1, inf)"),
        "dev_size": (_INT, 50, "[1, inf)"),
        "test_size": (_INT, 50, "[1, inf)"),
        "aux_dim": (_INT, 0, "[0, inf)"),
        "markov_transcripts": (_BOOL, True, None),
        "markov_concentration": (_FLOAT, 0.3, "[0, inf)"),
        "external_text_factor": (_INT, 10, "[1, inf)"),
        "delta_features": (_BOOL, False, None),
    },
    "model": {
        "encoder_layers": (_INT, 2, "[1, inf)"),
        "encoder_cells": (_INT, 64, "[1, inf)"),
        "bidirectional": (_BOOL, True, None),
        "lookahead": (_INT, 0, "[0, inf)"),  # > 0 needs bidirectional = false
        "stacking": (_INT, 2, "[1, inf)"),
        "skip": (_INT, 2, "[1, inf)"),
        "prediction_cells": (_INT, 48, "[1, inf)"),
        "embed_dim": (_INT, 16, "[1, inf)"),
        "joint_dim": (_INT, 16, "[1, inf)"),
        "modes": (_STRS, JOINT_MODES, Items(JOINT_MODES, empty=False)),
        "encoder_init": (_STR, "", None),
    },
    "training": {
        "epochs": (_INT, 20, "[0, inf)"),  # 0 = reuse the checkpoint
        "batch_size": (_INT, 8, "[1, inf)"),
        "optimizer": (_STR, OPTIMIZERS[1], OPTIMIZERS),
        "momentum": (_FLOAT, 0.9, "[0, 1]"),
        "beta1": (_FLOAT, 0.9, "[0, 1)"),
        "beta2": (_FLOAT, 0.98, "[0, 1)"),
        "eps": (_FLOAT, 1e-9, "(0, inf)"),
        "weight_decay": (_FLOAT, 0.01, "[0, inf)"),
        "clip_norm": (_FLOAT, 10.0, None),  # <= 0 = no clipping
        "schedule": (_STR, SCHEDULES[1], SCHEDULES),
        "base_lr": (_FLOAT, 0.01, "[0, inf)"),
        "decay_factor": (_FLOAT, 0.7, "[0, 1]"),
        "decay_start_epoch": (_INT, 10, "[0, inf)"),
        # Desk-scale peak; the paper-scale OneCycle endpoints (5e-5 -> 5e-4
        # -> 0 over 6/20 epochs) are the ScheduleConfig class defaults.
        "start_lr": (_FLOAT, 5e-4, "[0, inf)"),
        "peak_lr": (_FLOAT, 5e-3, "[0, inf)"),
        "warmup_epochs": (_FLOAT, 6.0, "[0, inf)"),
        "total_epochs": (_FLOAT, 0.0, "[0, inf)"),  # 0 = follow epochs
        "dropconnect_rate": (_FLOAT, 0.25, "[0, 1]"),
        # Switchout replacement draws are uniform over the full vocabulary
        # and may redraw the original symbol.
        "switchout": (_BOOL, True, None),
        "switchout_temperature": (_FLOAT, 10.0, "(0, inf)"),
        "sequence_noise": (_BOOL, True, None),
        "noise_probability": (_FLOAT, 0.8, "[0, 1]"),
        "noise_scale": (_FLOAT, 0.4, "[0, inf)"),
        "noise_length_tolerance": (_FLOAT, 0.2, "[0, inf)"),
        "specaugment": (_BOOL, True, None),
        "freq_masks": (_INT, 2, "[0, inf)"),
        "freq_max_width": (_INT, 3, "[0, inf)"),
        "time_masks": (_INT, 2, "[0, inf)"),
        "time_max_width": (_INT, 5, "[0, inf)"),
        "max_time_ratio": (_FLOAT, 0.2, "[0, 1]"),
        "speed_tempo_replicas": (_BOOL, False, None),
    },
    "lm": {
        "source_layers": (_INT, 1, "[1, inf)"),
        "source_cells": (_INT, 64, "[1, inf)"),
        "source_embed_dim": (_INT, 16, "[1, inf)"),
        "external_layers": (_INT, 1, "[1, inf)"),
        "external_cells": (_INT, 64, "[1, inf)"),
        "external_embed_dim": (_INT, 16, "[1, inf)"),
        "epochs": (_INT, 3, "[0, inf)"),
        "batch_size": (_INT, 16, "[1, inf)"),
        "lr": (_FLOAT, 2e-3, "[0, inf)"),
    },
    "decoding": {
        "beam_width": (_INT, 8, "[1, inf)"),
        "n_best": (_INT, 32, "[1, inf)"),
        "expansion_factor": (_INT, 3, "[1, inf)"),
        "merge": (_STR, MERGES[0], MERGES),
    },
    "fusion": {
        # Grids bracket the production-recipe values (0.5, 0.7, 0.2). A
        # single shared source LM serves both transducers in combination.
        "mu_grid": (_FLOATS, DEFAULT_MU_GRID, Items(None, empty=False)),
        "lam_grid": (_FLOATS, DEFAULT_LAM_GRID, Items(None, empty=False)),
        "rho_grid": (_FLOATS, DEFAULT_RHO_GRID, Items(None, empty=False)),
        "combination_alpha": (_FLOAT, 0.5, None),
        "combination_beta": (_FLOAT, 0.5, None),
    },
    "experiment": {
        "seed": (_INT, 0, None),
        "conditions": (_STRS, CONDITIONS, Items(CONDITIONS, empty=True)),
        "sweep": (_BOOL, False, None),
        "sweep_epochs": (_INT, 0, "[0, inf)"),  # 0 = same as training epochs
        "ablations": (_STRS, (), Items(tuple(ABLATIONS), empty=True)),
    },
}

def default_config() -> dict:
    return {
        section: {key: spec[1] for key, spec in keys.items()}
        for section, keys in CONFIG_SCHEMA.items()
    }


def with_settings(config: dict, section: str, **values) -> dict:
    """A copy of `config` with `values` set in `section`, checked as
    `parse_config` checks a file; `config` is left untouched."""
    copy = {name: dict(keys) for name, keys in config.items()}
    copy[section].update(values)
    _validate(copy)
    return copy


def _parse_value(kind, raw, where):
    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _BOOL:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == _FLOATS:
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
        if kind == _STRS:
            return tuple(v.strip() for v in raw.split(",") if v.strip() != "")
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from exc


def parse_config(path) -> dict:
    """Parse and validate a config file against the schema; unknown keys or
    sections are errors."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    config = default_config()
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind = CONFIG_SCHEMA[section][key][0]
            config[section][key] = _parse_value(kind, raw, f"[{section}] {key}")
    _validate(config)
    return config


def _validate(config: dict):
    """Refuse, at parse time, every value outside its key's domain, and every
    setting that breaks a rule involving two keys."""
    for section, keys in CONFIG_SCHEMA.items():
        for key, (kind, _, domain) in keys.items():
            value, where = config[section][key], f"[{section}] {key}"
            items = (value,)
            if isinstance(domain, Items):
                if not (value or domain.empty):
                    raise ConfigError(f"{where}: at least one value is needed")
                repeated = [item for i, item in enumerate(value) if item in value[:i]]
                if repeated and kind == _STRS:  # a name list names each entry once
                    raise ConfigError(f"{where}: {repeated[0]!r} is named more than once")
                items, domain = value, domain.each
            for item in items:
                if kind in (_FLOAT, _FLOATS) and not np.isfinite(item) or not _in_domain(item, domain):
                    raise ConfigError(f"{where}: {item!r} is outside {domain or 'the finite numbers'}")
    t, tr, e, m = config["task"], config["training"], config["experiment"], config["model"]
    for low, high in (("length_min", "length_max"), ("frames_per_symbol_min", "frames_per_symbol_max")):
        if t[high] < t[low]:
            raise ConfigError(f"[task] {high}: {t[high]} is below {low} {t[low]}")
    if "combination" in e["conditions"] and len(m["modes"]) < 2:
        raise ConfigError(f"[experiment] conditions: combination needs two modes, got {m['modes']}")
    if m["bidirectional"] and m["lookahead"] != 0:
        raise ConfigError(f"[model] lookahead: {m['lookahead']} needs bidirectional = false")
    if 0 < tr["total_epochs"] < max(tr["epochs"], e["sweep_epochs"]):  # one-cycle ends too early
        raise ConfigError(f"[training] total_epochs: {tr['total_epochs']} ends before the last epoch")


def _in_domain(value, domain) -> bool:
    if isinstance(domain, str):  # an interval
        low, high = (float(bound) for bound in domain[1:-1].split(","))
        return (low < value if domain[0] == "(" else low <= value) and (
            value < high if domain[-1] == ")" else value <= high)
    return domain is None or value in domain


def format_config(config: dict) -> str:
    """The config file text of `config`, which `parse_config` reads back."""
    parser = configparser.ConfigParser()
    for section, keys in config.items():
        parser[section] = {
            key: ",".join(str(v) for v in value) if isinstance(value, (tuple, list)) else str(value)
            for key, value in keys.items()
        }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def write_config(path, config: dict):
    with atomic_write(path) as f:
        f.write(format_config(config))


def config_fingerprint(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=list).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Builders


def build_task_config(config: dict) -> SyntheticTaskConfig:
    t = config["task"]
    return SyntheticTaskConfig(
        num_labels=t["num_labels"],
        feature_dim=t["feature_dim"],
        frames_per_symbol=(t["frames_per_symbol_min"], t["frames_per_symbol_max"]),
        noise_level=t["noise_level"],
        length_range=(t["length_min"], t["length_max"]),
        train_size=t["train_size"],
        dev_size=t["dev_size"],
        test_size=t["test_size"],
        aux_dim=t["aux_dim"],
        markov_transcripts=t["markov_transcripts"],
        markov_concentration=t["markov_concentration"],
    )


def build_model_config(config: dict, mode: str) -> ModelConfig:
    t = config["task"]
    m = config["model"]
    input_dim = t["feature_dim"] * (3 if t["delta_features"] else 1)
    return ModelConfig(
        num_labels=t["num_labels"],
        encoder=EncoderConfig(
            layers=m["encoder_layers"],
            cells=m["encoder_cells"],
            bidirectional=m["bidirectional"],
            stacking=m["stacking"],
            skip=m["skip"],
            lookahead=m["lookahead"],
            aux_dim=t["aux_dim"],
            input_dim=input_dim,
        ),
        prediction=PredictionConfig(cells=m["prediction_cells"], embed_dim=m["embed_dim"]),
        joint_dim=m["joint_dim"],
        joint_mode=mode,
    )


def build_recipe(config: dict) -> TrainingRecipe:
    """The recipe of `config`'s [training] section. The sweep and the
    ablations train from config copies (`with_settings`)."""
    tr = config["training"]
    total = tr["total_epochs"] or float(tr["epochs"])
    total = max(1.0, total)  # degenerate zero-epoch runs still need a valid shape
    return TrainingRecipe(
        epochs=tr["epochs"],
        batch_size=tr["batch_size"],
        optimizer=OptimizerConfig(
            kind=tr["optimizer"],
            momentum=tr["momentum"],
            beta1=tr["beta1"],
            beta2=tr["beta2"],
            eps=tr["eps"],
            weight_decay=tr["weight_decay"],
            clip_norm=tr["clip_norm"],
        ),
        schedule=ScheduleConfig(
            kind=tr["schedule"],
            base_lr=tr["base_lr"],
            decay_factor=tr["decay_factor"],
            decay_start_epoch=tr["decay_start_epoch"],
            start_lr=tr["start_lr"],
            peak_lr=tr["peak_lr"],
            warmup_epochs=min(tr["warmup_epochs"], total / 2),
            total_epochs=total,
        ),
        dropconnect_rate=tr["dropconnect_rate"],
        switchout=(
            SwitchoutConfig(temperature=tr["switchout_temperature"],
                            vocab=config["task"]["num_labels"])
            if tr["switchout"]
            else None
        ),
        sequence_noise=(
            NoiseInjectConfig(
                probability=tr["noise_probability"],
                scale=tr["noise_scale"],
                length_tolerance=tr["noise_length_tolerance"],
            )
            if tr["sequence_noise"]
            else None
        ),
        specaugment=(
            SpecAugmentConfig(
                freq_masks=tr["freq_masks"],
                freq_max_width=tr["freq_max_width"],
                time_masks=tr["time_masks"],
                time_max_width=tr["time_max_width"],
                max_time_ratio=tr["max_time_ratio"],
            )
            if tr["specaugment"]
            else None
        ),
        replicas=(
            (("speed", 0.9), ("speed", 1.1), ("tempo", 0.9), ("tempo", 1.1))
            if tr["speed_tempo_replicas"]
            else ()
        ),
        expansion_factor=config["decoding"]["expansion_factor"],
    )


def build_lm_config(config: dict, which: str) -> CharLMConfig:
    lm = config["lm"]
    return CharLMConfig(
        layers=lm[f"{which}_layers"],
        cells=lm[f"{which}_cells"],
        embed_dim=lm[f"{which}_embed_dim"],
    )


def _apply_deltas(dataset: Dataset) -> Dataset:
    utts = [
        Utterance(
            utt_id=u.utt_id,
            frames=append_deltas(u.frames.astype(np.float64)).astype(np.float32),
            labels=u.labels,
            speaker=u.speaker,
            aux=u.aux,
        )
        for u in dataset
    ]
    return Dataset(utts, dataset.dim * 3, dataset.aux_dim)


# ---------------------------------------------------------------------------
# Report


@dataclass
class ExperimentReport:
    config_fingerprint: str
    seed: int
    modes: list
    epochs: dict = field(default_factory=dict)  # mode -> list of epoch dicts
    conditions: dict = field(default_factory=dict)  # condition -> entry dicts
    sweep: list = field(default_factory=list)
    ablations: dict = field(default_factory=dict)
    failure_stage: str | None = None
    failure_message: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "ExperimentReport":
        """Inverse of to_dict; ContractViolation unless `data` holds exactly
        the report's fields."""
        names = {f.name for f in fields(cls)}
        keys = set(data) if isinstance(data, dict) else set()
        if not isinstance(data, dict) or keys != names:
            raise ContractViolation(f"malformed report: missing fields {sorted(names - keys)}, "
                                    f"unknown fields {sorted(keys - names)}")
        return cls(**data)


def render_report(report: ExperimentReport) -> str:
    lines = []
    lines.append(f"experiment report  (config {report.config_fingerprint}, seed {report.seed})")
    if report.failure_stage:
        lines.append(f"FAILED at stage: {report.failure_stage}: {report.failure_message}")
    for mode in report.modes:
        records = report.epochs.get(mode, [])
        if records:
            last = records[-1]
            lines.append(
                f"training [{mode}]: {len(records)} epochs, "
                f"final train NLL {last['train_nll']:.4f}, dev WER {_pct(last['dev_wer'])}"
            )
    if report.conditions:
        lines.append("")
        lines.append(f"{'condition':<16} {'model':<16} {'dev WER':>8} {'test WER':>9}  weights")
        for cond, entries in report.conditions.items():
            for name, entry in entries.items():
                lines.append(
                    f"{cond:<16} {name:<16} {_pct(entry['dev_wer']):>8} "
                    f"{_pct(entry['test_wer']):>9}  {entry.get('weights', '')}"
                )
    if report.sweep:
        lines.append("")
        lines.append(f"{'optimizer':<14} {'schedule':<12} {'dev WER':>8} {'test WER':>9}")
        for row in report.sweep:
            wers = (f"diverged: {row['diverged']}" if "diverged" in row
                    else f"{_pct(row['dev_wer']):>8} {_pct(row['test_wer']):>9}")
            lines.append(f"{row['optimizer']:<14} {row['schedule']:<12} {wers}")
    if report.ablations:
        lines.append("")
        lines.append(f"{'ablation':<20} {'no ext LM':>10} {'density ratio':>14}")
        for name, entry in report.ablations.items():
            lines.append(
                f"{name:<20} {_pct(entry['no_lm_test_wer']):>10} "
                f"{_pct(entry['density_ratio_test_wer']):>14}"
            )
    return "\n".join(lines) + "\n"


def _pct(value) -> str:
    if value is None:
        return "-"
    return f"{100.0 * value:.2f}%"


# ---------------------------------------------------------------------------
# Stages

# The files of a run directory, by kind; `artifact` fills the slot with its
# parts joined by "_": a split; a mode or a tag (`sweep_adamw_one_cycle`,
# `ablation_no_switchout`), with the split in n-best files; an LM name; or a
# condition with its mode.
ARTIFACTS = {
    "config": "config.ini",  # normalized copy of the config
    "features": "features_{}.bin",  # feature container per split
    "transcripts": "transcripts_{}.tsv",  # references per split
    "external_text": "external_text.tsv",  # extra LM training text
    "model": "model_{}.npz",  # transducer checkpoint
    "metrics": "metrics_{}.jsonl",  # one record per training epoch, with gradient-norm telemetry
    "lm": "lm_{}.npz",  # character LM checkpoint
    "nbest": "nbest_{}.tsv",  # decoder output with LM components filled
    "combination": "combination_{}.tsv",  # cross-scored union of two modes' n-bests, same format
    "weights": "weights_{}.json",  # tuned fusion weights
    "report": "report.{}",  # json or txt
}


def artifact(kind: str, *parts: str) -> str:
    """The file name of the `kind` artifact of `parts` in a run directory."""
    return ARTIFACTS[kind].format("_".join(parts))


class Run:
    """A run directory and what its stages share: the data, each model and
    the LMs are read from the directory on first use unless a stage set
    them. `modes` and `splits` select what train and decode work on."""

    def __init__(self, config: dict, run_dir, modes=None, splits=None):
        self.config, self.run_dir = config, Path(run_dir)
        self.modes = tuple(modes or config["model"]["modes"])
        self.splits = splits or ("dev", "test")
        self.rng = RandomStream(config["experiment"]["seed"])
        self.report = ExperimentReport(config_fingerprint(config), config["experiment"]["seed"],
                                       list(config["model"]["modes"]))

    @functools.cached_property
    def data(self):
        return load_run_data(self.config, self.run_dir)

    @functools.cached_property
    def models(self):
        return {mode: load_checkpoint(self.run_dir / artifact("model", mode))[0]
                for mode in self.modes}

    @functools.cached_property
    def lms(self):
        # A missing checkpoint raises FileNotFoundError naming it.
        return tuple(load_char_lm(self.run_dir / artifact("lm", which))[0] for which in LM_NAMES)


def stage_generate(run: Run, stream: int):
    """Start the run directory: the config and the dataset files. An older
    run's report goes first, so a rerun that stops early leaves none."""
    config, run_dir, rng = run.config, run.run_dir, run.rng.child(stream)
    run_dir.mkdir(parents=True, exist_ok=True)
    for suffix in ("json", "txt"):
        (run_dir / artifact("report", suffix)).unlink(missing_ok=True)
    write_config(run_dir / artifact("config"), config)
    task = generate_synthetic_task(build_task_config(config), rng.child(1))
    datasets = {"train": task.train, "dev": task.dev, "test": task.test}
    if config["task"]["delta_features"]:
        datasets = {k: _apply_deltas(v) for k, v in datasets.items()}
    for split, ds in datasets.items():
        write_features(run_dir / artifact("features", split), ds)
        write_transcripts(run_dir / artifact("transcripts", split), ds, task.alphabet)
    factor = config["task"]["external_text_factor"]
    extra = sample_text_corpus(task, (factor - 1) * len(task.train), rng.child(2))
    write_transcripts(run_dir / artifact("external_text"),
                      {f"ext-{i:05d}": seq for i, seq in enumerate(extra)}, task.alphabet)
    run.data = task.alphabet, datasets


def load_run_data(config: dict, run_dir: Path, splits=("train", "dev", "test")):
    """The alphabet and the datasets of `splits`, transcripts attached."""
    alphabet = Alphabet(config["task"]["num_labels"], separator=config["task"]["num_labels"] - 1)
    datasets = {}
    for split in splits:
        ds = read_features(run_dir / artifact("features", split))
        attach_transcripts(ds, read_transcripts(run_dir / artifact("transcripts", split), alphabet))
        datasets[split] = ds
    return alphabet, datasets


def load_cached_nbests(path, alphabet, dataset):
    """The n-best file at `path`, cached against the references of `dataset`."""
    refs = {u.utt_id: u.labels for u in dataset}
    return cached_nbests(read_nbest(path, alphabet), alphabet, refs)


def stage_train(run: Run, stream: int):
    """Train each selected mode, from stream `stream` + its configured index."""
    alphabet, datasets = run.data
    run.models = {}
    for mode in run.modes:
        rng = run.rng.child(stream + run.config["model"]["modes"].index(mode))
        run.models[mode], result = stage_train_mode(run.config, run.run_dir, rng, datasets,
                                                    alphabet, mode)
        run.report.epochs[mode] = [r.report_dict() for r in result.metrics]


def stage_train_mode(config, run_dir, rng, datasets, alphabet, mode, tag=None):
    tag = tag or mode
    recipe = build_recipe(config)
    checkpoint = Path(run_dir) / artifact("model", tag)
    if recipe.epochs == 0 and checkpoint.exists():
        # Decode-only runs: reuse the existing checkpoint untouched; nothing trains.
        model, _ = load_checkpoint(checkpoint)
        return model, TrainResult(metrics=[])
    model = init_model(build_model_config(config, mode), rng.child(10))
    if config["model"]["encoder_init"]:
        load_encoder_init(model, config["model"]["encoder_init"])
    result = train(model, datasets["train"], recipe, rng.child(11), dev_set=datasets["dev"],
                   alphabet=alphabet)
    save_checkpoint(checkpoint, model, {"mode": mode, "tag": tag})
    with atomic_write(run_dir / artifact("metrics", tag)) as f:
        for record in result.metrics:
            f.write(json.dumps(record.to_dict()) + "\n")
    return model, result


def _train_lms(run: Run, stream: int):
    alphabet, datasets = run.data
    run.lms = stage_train_lms(run.config, run.run_dir, run.rng.child(stream), datasets, alphabet)


def stage_train_lms(config, run_dir, rng, datasets, alphabet):
    train_texts = [utt.labels for utt in datasets["train"]]
    extra = read_transcripts(run_dir / artifact("external_text"), alphabet)
    corpora = dict(zip(LM_NAMES, (train_texts, train_texts + [extra[k] for k in sorted(extra)])))
    lm_cfg = config["lm"]
    lms = {}
    for i, (which, texts) in enumerate(corpora.items()):
        lms[which] = init_char_lm_params(config["task"]["num_labels"],
                                         build_lm_config(config, which), rng.child(20 + 2 * i))
        train_char_lm(lms[which], texts, rng.child(21 + 2 * i), epochs=lm_cfg["epochs"],
                      batch_size=lm_cfg["batch_size"], lr=lm_cfg["lr"])
    for which, texts in corpora.items():
        save_char_lm(run_dir / artifact("lm", which), lms[which], build_lm_config(config, which),
                     {"corpus_sequences": len(texts)})
    return lms["source"], lms["external"]


def decode_dataset(model, dataset: Dataset, config: dict, start) -> list:
    """ALSD n-best rows per utterance, capped by `alsd_cap` at the configured
    expansion factor, every search from `start`, the model's empty-prefix
    state that `stage_decode` makes once per model, so each utterance reads
    the prefix rows of the ones before it. Returns (utt_id, rows) pairs
    ordered by id, with zero LM components."""
    d = config["decoding"]
    skip = config["model"]["skip"]
    records = []
    for utt in sorted(dataset, key=lambda u: u.utt_id):
        cap = alsd_cap((utt.num_frames + skip - 1) // skip, d["expansion_factor"])
        rows = alsd_beam(model, utt.frames.astype(np.float64), beam_width=d["beam_width"],
                         n_best=d["n_best"], expansion_cap=cap, merge=d["merge"], aux=utt.aux,
                         start=start)
        records.append((utt.utt_id, rows))
    return records


def attach_lm_components(records, source_lm, external_lm):
    """The n-best file rows of decoder records: each row with its LM
    components replaced by full-sequence LM scores. Each distinct label
    sequence is scored once per LM, and each LM keeps one `PrefixStates`
    table for the call, shared by all its utterances, so a prefix shared by
    many hypotheses runs through the label network once. Scoring happens
    inside the one pass over `records`: each utterance's sequences fill the
    tables (a block step per depth), then are scored. The tables live only
    for the call: LM tables shared by all of `stage_decode`'s calls raised
    the `decode` benchmark's peak RSS by up to 5.6 %."""
    out = []
    cache: dict[tuple, tuple] = {}
    lms = [(lm, PrefixStates(lm)) for lm in (source_lm, external_lm)]
    for utt_id, decoded in records:
        for _, table in lms:
            table.rows(dict.fromkeys(row.labels for row in decoded))
        rows = []
        for row in decoded:
            if row.labels not in cache:
                cache[row.labels] = tuple(lm_score(row.labels, lm, table) for lm, table in lms)
            src, ext = cache[row.labels]
            rows.append(NBestRecord(row.labels, row.length, row.transducer_a, src, ext))
        out.append((utt_id, rows))
    return out


def stage_decode(config, run_dir, models, datasets, alphabet, source_lm, external_lm):
    """Decode every split of `datasets` except `train` with every model in
    `models` (`decode_dataset`), fill the LM columns
    (`attach_lm_components`) and write the n-best files. Each model has one
    prefix table for the call: one start state for all its splits."""
    for mode, model in models.items():
        start = model.init_decode_state()
        for split in [s for s in datasets if s != "train"]:
            records = decode_dataset(model, datasets[split], config, start)
            write_nbest(run_dir / artifact("nbest", mode, split),
                        attach_lm_components(records, source_lm, external_lm), alphabet)


def _decode(run: Run, stream=None):
    # The models and both LMs are loaded before the first n-best file is written.
    alphabet, datasets = run.data
    stage_decode(run.config, run.run_dir, run.models,
                 {split: datasets[split] for split in run.splits}, alphabet, *run.lms)


def weights_from_dict(d: dict) -> FusionWeights | CombinationWeights:
    """The inverse of `dataclasses.asdict` on weights: CombinationWeights
    when `d` has alpha, FusionWeights otherwise. A missing key raises
    ContractViolation."""
    kind = CombinationWeights if "alpha" in d else FusionWeights
    missing = [f.name for f in fields(kind) if f.name not in d]
    if missing:
        raise ContractViolation(f"weights {d} lack {', '.join(missing)}")
    return kind(**{f.name: d[f.name] for f in fields(kind)})


def condition_grid(config: dict, condition: str) -> dict:
    """The `tune_weights` grid of `condition`: no_lm is the one zero cell,
    shallow fixes mu at 0, density_ratio searches the configured grids, and
    combination adds the configured (alpha, beta) pair."""
    if condition == "no_lm":
        return {"mu_grid": (0.0,), "lam_grid": (0.0,), "rho_grid": (0.0,)}
    f = config["fusion"]
    grid = {
        "mu_grid": (0.0,) if condition == "shallow" else f["mu_grid"],
        "lam_grid": f["lam_grid"],
        "rho_grid": f["rho_grid"],
    }
    if condition == "combination":
        grid["alpha_beta_grid"] = ((f["combination_alpha"], f["combination_beta"]),)
    return grid


def condition_entry(path, dev, test, grid: dict) -> dict:
    """Tune on the `dev` CachedNBests over `grid`, write the weights to
    `path` and return the report entry. The dev WER is the tuned cell's,
    which equals `top1_wer(dev, weights)` bit for bit."""
    tuned = tune_weights(dev, **grid)
    weights = asdict(tuned.weights)
    with atomic_write(path) as fh:
        json.dump(weights, fh)
    return {"dev_wer": tuned.wer, "test_wer": top1_wer(test, tuned.weights), "weights": weights}


def stage_fusion_conditions(config, run_dir, models, datasets, alphabet,
                            source_lm, external_lm, report: ExperimentReport):
    """Tune and score every configured condition from the n-best files,
    each read once and shared by all conditions; combination comes last.
    The LM components come from those files, which the decode stage
    filled; `source_lm` and `external_lm` are not read."""
    refs = {split: {u.utt_id: u.labels for u in datasets[split]} for split in ("dev", "test")}
    rows = {(mode, split): read_nbest(run_dir / artifact("nbest", mode, split), alphabet)
            for mode in models for split in ("dev", "test")}
    cached = {key: cached_nbests(r, alphabet, refs[key[1]]) for key, r in rows.items()}
    for condition in sorted(config["experiment"]["conditions"], key=lambda c: c == "combination"):
        if condition != "combination":
            scored = {mode: ((condition, mode), cached[mode, "dev"], cached[mode, "test"])
                      for mode in models}
        else:  # a validated config has two modes
            union = stage_combination(config, run_dir, models, datasets, alphabet, refs, rows)
            scored = {"+".join(list(models)[:2]): ((condition,), union["dev"], union["test"])}
        grid = condition_grid(config, condition)
        report.conditions[condition] = {
            name: condition_entry(run_dir / artifact("weights", *tag), dev, test, grid)
            for name, (tag, dev, test) in scored.items()
        }


def _fuse_score(run: Run, stream=None):
    alphabet, datasets = run.data
    # The LM columns come from the n-best files; the LMs are not read.
    stage_fusion_conditions(run.config, run.run_dir, run.models, datasets, alphabet, None, None,
                            run.report)


def stage_combination(config, run_dir, models, datasets, alphabet, refs, rows) -> dict:
    """Cross-score the union of the first two modes' n-best lists, given as
    `rows[mode, split]` (`read_nbest` output), write the `combine_rescore`
    rows, ranked by the first mode's score, to the split's combination file
    and return their CachedNBests by split. The LM columns are the n-best
    files' own; the label cap is that of `[decoding] expansion_factor`. Each
    model has one prefix table per split, made from its `prediction` network
    and shared by the split's unions."""
    mode_a, mode_b = list(models)[:2]
    cached = {}
    for split in ("dev", "test"):
        nb_a, nb_b = rows[mode_a, split], rows[mode_b, split]
        tables = [PrefixStates(models[mode].prediction) for mode in (mode_a, mode_b)]
        unions = {}
        for utt in sorted(datasets[split], key=lambda u: u.utt_id):
            unions[utt.utt_id] = combine_rescore(
                utt.frames.astype(np.float64), nb_a.get(utt.utt_id, []), nb_b.get(utt.utt_id, []),
                models[mode_a], models[mode_b], aux=utt.aux, tables=tables,
                expansion_factor=config["decoding"]["expansion_factor"])
        write_nbest(run_dir / artifact("combination", split), unions.items(), alphabet)
        cached[split] = cached_nbests(unions, alphabet, refs[split])
    return cached


# The optimizer x schedule grid of the sweep, by training tag.
SWEEP = {
    f"sweep_{optimizer}_{schedule}": (optimizer, schedule)
    for optimizer in OPTIMIZERS for schedule in SCHEDULES
}


def stage_sweep(run: Run, stream: int):
    """Optimizer x schedule grid in the style of the production study, when
    the config asks for it. A cell that diverges is a row with its message
    and no WER."""
    config, rng = run.config, run.rng.child(stream)
    if not config["experiment"]["sweep"]:
        return
    alphabet, datasets = run.data
    mode = config["model"]["modes"][0]
    epochs = config["experiment"]["sweep_epochs"] or config["training"]["epochs"]
    for tag, (opt_kind, sched_kind) in SWEEP.items():
        settings = with_settings(config, "training", epochs=epochs, optimizer=opt_kind,
                                 schedule=sched_kind)
        row = {"optimizer": opt_kind, "schedule": sched_kind}
        try:
            model, result = stage_train_mode(settings, run.run_dir, rng.child(hash_tag(tag)),
                                             datasets, alphabet, mode, tag=tag)
        except TrainingDiverged as exc:
            row.update(dev_wer=None, test_wer=None, diverged=str(exc))
        else:
            row.update(dev_wer=result.metrics[-1].dev_wer if result.metrics else None,
                       test_wer=_greedy_wer(model, datasets["test"], alphabet,
                                            config["decoding"]["expansion_factor"]))
        run.report.sweep.append(row)


def hash_tag(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")


def _greedy_wer(model, dataset, alphabet, expansion_factor) -> float:
    """Corpus WER of greedy decoding over `dataset`, at the label cap of
    `expansion_factor` (`[decoding] expansion_factor`)."""
    errors = 0
    words = 0
    start = model.init_decode_state()  # one prefix table for the call
    for utt in sorted(dataset, key=lambda u: u.utt_id):
        labels = greedy_decode(model, utt.frames.astype(np.float64), aux=utt.aux, start=start,
                               expansion_factor=expansion_factor)
        reference = alphabet.words(utt.labels)
        errors += compute_wer(reference, alphabet.words(labels))
        words += len(reference)
    return errors / max(1, words)


def stage_ablations(run: Run, stream: int):
    """Train, decode and tune each configured ablation of the first mode;
    its tuned weights go to a weights file of its own."""
    config, rng = run.config, run.rng.child(stream)
    mode = config["model"]["modes"][0]
    for ablation in config["experiment"]["ablations"]:
        alphabet, datasets = run.data
        tag = f"ablation_{ablation}"
        key, value = ABLATIONS[ablation]
        model, _ = stage_train_mode(with_settings(config, "training", **{key: value}), run.run_dir,
                                    rng.child(hash_tag(tag)), datasets, alphabet, mode, tag=tag)
        stage_decode(config, run.run_dir, {tag: model}, datasets, alphabet, *run.lms)
        dev, test = (load_cached_nbests(run.run_dir / artifact("nbest", tag, split), alphabet,
                                        datasets[split]) for split in ("dev", "test"))
        entry = condition_entry(run.run_dir / artifact("weights", tag), dev, test,
                                condition_grid(config, "density_ratio"))
        run.report.ablations[ablation] = {
            "no_lm_test_wer": top1_wer(test, FusionWeights()),
            "density_ratio_test_wer": entry["test_wer"],
            "weights": entry["weights"],
        }


# ---------------------------------------------------------------------------
# Orchestration


class Stage(NamedTuple):
    """`fn(run, stream)` runs the stage on a `Run`, drawing from the seed's
    child `stream` (train adds each mode's index); `writes(config)` names
    every file it writes."""

    stream: int | None
    fn: Callable
    writes: Callable

    def __call__(self, run: Run):
        self.fn(run, self.stream)


def _training_files(tags) -> list:
    return [artifact(kind, tag) for tag in tags for kind in ("model", "metrics")]


def _fusion_writes(config: dict) -> list:
    conditions = config["experiment"]["conditions"]
    names = [artifact("weights", condition, mode) for condition in conditions
             if condition != "combination" for mode in config["model"]["modes"]]
    if "combination" in conditions:
        names += [artifact("combination", "dev"), artifact("combination", "test"),
                  artifact("weights", "combination")]
    return names


def _ablation_writes(config: dict) -> list:
    tags = [f"ablation_{ablation}" for ablation in config["experiment"]["ablations"]]
    nbests = [artifact("nbest", tag, split) for tag in tags for split in ("dev", "test")]
    return _training_files(tags) + nbests + [artifact("weights", tag) for tag in tags]


# The stages in run order, by name: a failed run's `failure_stage`.
STAGES = {
    "generate": Stage(100, stage_generate, lambda c: [
        artifact("config"), artifact("external_text"),
        *(artifact(kind, split) for kind in ("features", "transcripts")
          for split in ("train", "dev", "test"))]),
    "train": Stage(200, stage_train, lambda c: _training_files(c["model"]["modes"])),
    "train_lms": Stage(300, _train_lms, lambda c: [artifact("lm", which) for which in LM_NAMES]),
    "decode": Stage(None, _decode, lambda c: [
        artifact("nbest", mode, split) for mode in c["model"]["modes"] for split in ("dev", "test")]),
    "fuse_score": Stage(None, _fuse_score, _fusion_writes),
    "sweep": Stage(400, stage_sweep,
                   lambda c: _training_files(SWEEP) if c["experiment"]["sweep"] else []),
    "ablations": Stage(500, stage_ablations, _ablation_writes),
    "report": Stage(None, lambda run, stream: _write_report(run.run_dir, run.report),
                    lambda c: [artifact("report", "json"), artifact("report", "txt")]),
}


def run_experiment(config: dict, run_dir) -> ExperimentReport:
    """Run every stage of `STAGES` in order; on failure, write and return a
    partial report naming the failed stage. Fully deterministic under the
    configured seed."""
    run = Run(config, run_dir)
    for name, stage in STAGES.items():
        try:
            stage(run)
        except (WorkbenchError, OSError) as exc:
            run.report.failure_stage, run.report.failure_message = name, str(exc)
            _write_report(run.run_dir, run.report)
            break
    return run.report


def _write_report(run_dir: Path, report: ExperimentReport):
    with atomic_write(run_dir / artifact("report", "json")) as f:
        json.dump(report.to_dict(), f, indent=2)
    with atomic_write(run_dir / artifact("report", "txt")) as f:
        f.write(render_report(report))


def load_report(run_dir) -> dict:
    """The parsed `report.json`. ContractViolation ("malformed report")
    unless it is JSON holding exactly the fields of an ExperimentReport."""
    with open(Path(run_dir) / artifact("report", "json"), encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"malformed report: {exc}") from exc
    ExperimentReport.from_dict(data)
    return data


def verify_report(run_dir) -> list[str]:
    """Check that the report belongs to the run's config.ini and recompute
    every reported condition, ablation and sweep WER from the stored
    n-best, combination, weight, checkpoint and dataset files, reading each
    file once; returns a list of discrepancies (empty = verified)."""
    run_dir = Path(run_dir)
    report = load_report(run_dir)
    config = parse_config(run_dir / artifact("config"))
    alphabet, datasets = load_run_data(config, run_dir, ("dev", "test"))

    @functools.cache
    def load(kind, *parts):
        return load_cached_nbests(run_dir / artifact(kind, *parts), alphabet, datasets[parts[-1]])

    problems = []
    fingerprint = config_fingerprint(config)
    if report["config_fingerprint"] != fingerprint:
        problems.append(f"config_fingerprint: reported {report['config_fingerprint']}, "
                        f"config.ini has {fingerprint}")

    def check(label, reported, recomputed):
        # NaN fails `<=`, so a non-finite or non-numeric WER is a mismatch.
        numeric = isinstance(reported, (int, float)) and not isinstance(reported, bool)
        if not (numeric and abs(recomputed - reported) <= 1e-12):
            problems.append(f"{label}: reported {reported}, recomputed {recomputed}")

    for condition, entries in report["conditions"].items():
        for name, entry in entries.items():
            stem = ("combination",) if condition == "combination" else ("nbest", name)
            weights = weights_from_dict(entry["weights"])
            for split in ("dev", "test"):
                check(f"{condition}/{name}/{split}", entry[f"{split}_wer"],
                      top1_wer(load(*stem, split), weights))
    for name, entry in report["ablations"].items():
        rows = load("nbest", "ablation", name, "test")
        check(f"ablations/{name}/no_lm_test", entry["no_lm_test_wer"],
              top1_wer(rows, FusionWeights()))
        check(f"ablations/{name}/density_ratio_test", entry["density_ratio_test_wer"],
              top1_wer(rows, weights_from_dict(entry["weights"])))
    factor = config["decoding"]["expansion_factor"]
    for row in report["sweep"]:
        optimizer, schedule = row["optimizer"], row["schedule"]
        diverged = "diverged" in row  # no checkpoint, so no WER to recompute
        if not diverged:
            model, _ = load_checkpoint(run_dir / artifact("model", "sweep", optimizer, schedule))
        for split in ("dev", "test"):
            if row[f"{split}_wer"] is not None:  # None: no epoch was trained, or diverged
                wer = np.nan if diverged else _greedy_wer(model, datasets[split], alphabet, factor)
                check(f"sweep/{optimizer}/{schedule}/{split}", row[f"{split}_wer"], wer)
    return problems
