"""Experiment orchestration: a typed config file drives generate -> train ->
LM training -> decode -> fusion/scoring -> report, with every intermediate
artifact written under a run directory so reported numbers can be re-derived
(`verify`) from files alone.

Artifacts per run directory:

    config.ini                     normalized copy of the config
    features_{split}.bin           feature container per split
    transcripts_{split}.tsv        references per split
    external_text.tsv              extra LM training text
    model_{mode}.npz               transducer checkpoints
    metrics_{mode}.jsonl           one record per training epoch, with
                                   gradient-norm telemetry
    lm_source.npz / lm_external.npz
    nbest_{mode}_{split}.tsv       decoder output with LM components filled
    combination_{split}.tsv        cross-scored union of the modes' n-bests
                                   (one format with the n-best files, see
                                   `fusion.write_nbest`)
    weights_{condition}[_{mode}].json
    report.json / report.txt
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import io
import json
import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

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
from .decoding import DecodeError, Hypothesis, alsd_beam, greedy_decode
from .errors import ConfigError, ContractViolation, WorkbenchError
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
from .model import (
    ModelConfig,
    init_model,
    load_checkpoint,
    load_encoder_init,
    save_char_lm,
    save_checkpoint,
)
from .networks import CharLMConfig, EncoderConfig, PredictionConfig, PrefixStates, lm_score
from .numerics import RandomStream
from .scoring import compute_wer
from .training import (
    OptimizerConfig,
    ScheduleConfig,
    TrainingRecipe,
    train,
    train_char_lm,
)

logger = logging.getLogger(__name__)

_BOOL = "bool"
_INT = "int"
_FLOAT = "float"
_STR = "str"
_FLOATS = "float_list"
_STRS = "str_list"

# The scoring conditions, in report order.
CONDITIONS = ("no_lm", "shallow", "density_ratio", "combination")

# One entry per recognized key: (type, default). Unknown sections or keys in
# a config file are errors (typo safety in ablation sweeps).
CONFIG_SCHEMA = {
    "task": {
        "num_labels": (_INT, 8),
        "feature_dim": (_INT, 10),
        "frames_per_symbol_min": (_INT, 2),
        "frames_per_symbol_max": (_INT, 4),
        "noise_level": (_FLOAT, 0.3),
        "length_min": (_INT, 3),
        "length_max": (_INT, 8),
        "train_size": (_INT, 500),
        "dev_size": (_INT, 50),
        "test_size": (_INT, 50),
        "aux_dim": (_INT, 0),
        "markov_transcripts": (_BOOL, True),
        "markov_concentration": (_FLOAT, 0.3),
        "external_text_factor": (_INT, 10),
        "delta_features": (_BOOL, False),
    },
    "model": {
        "encoder_layers": (_INT, 2),
        "encoder_cells": (_INT, 64),
        "bidirectional": (_BOOL, True),
        "lookahead": (_INT, 0),
        "stacking": (_INT, 2),
        "skip": (_INT, 2),
        "prediction_cells": (_INT, 48),
        "embed_dim": (_INT, 16),
        "joint_dim": (_INT, 16),
        "modes": (_STRS, ("additive", "multiplicative")),
        "encoder_init": (_STR, ""),
    },
    "training": {
        "epochs": (_INT, 20),
        "batch_size": (_INT, 8),
        "optimizer": (_STR, "adamw"),
        "momentum": (_FLOAT, 0.9),
        "beta1": (_FLOAT, 0.9),
        "beta2": (_FLOAT, 0.98),
        "eps": (_FLOAT, 1e-9),
        "weight_decay": (_FLOAT, 0.01),
        "clip_norm": (_FLOAT, 10.0),
        "schedule": (_STR, "one_cycle"),
        "base_lr": (_FLOAT, 0.01),
        "decay_factor": (_FLOAT, 0.7),
        "decay_start_epoch": (_INT, 10),
        # Desk-scale peak; the paper-scale OneCycle endpoints (5e-5 -> 5e-4
        # -> 0 over 6/20 epochs) are the ScheduleConfig class defaults.
        "start_lr": (_FLOAT, 5e-4),
        "peak_lr": (_FLOAT, 5e-3),
        "warmup_epochs": (_FLOAT, 6.0),
        "total_epochs": (_FLOAT, 0.0),  # 0 = follow epochs
        "dropconnect_rate": (_FLOAT, 0.25),
        # Switchout replacement draws are uniform over the full vocabulary
        # and may redraw the original symbol.
        "switchout": (_BOOL, True),
        "switchout_temperature": (_FLOAT, 10.0),
        "sequence_noise": (_BOOL, True),
        "noise_probability": (_FLOAT, 0.8),
        "noise_scale": (_FLOAT, 0.4),
        "noise_length_tolerance": (_FLOAT, 0.2),
        "specaugment": (_BOOL, True),
        "freq_masks": (_INT, 2),
        "freq_max_width": (_INT, 3),
        "time_masks": (_INT, 2),
        "time_max_width": (_INT, 5),
        "max_time_ratio": (_FLOAT, 0.2),
        "speed_tempo_replicas": (_BOOL, False),
    },
    "lm": {
        "source_layers": (_INT, 1),
        "source_cells": (_INT, 64),
        "source_embed_dim": (_INT, 16),
        "external_layers": (_INT, 1),
        "external_cells": (_INT, 64),
        "external_embed_dim": (_INT, 16),
        "epochs": (_INT, 3),
        "batch_size": (_INT, 16),
        "lr": (_FLOAT, 2e-3),
    },
    "decoding": {
        "beam_width": (_INT, 8),
        "n_best": (_INT, 32),
        "expansion_factor": (_INT, 3),
        "merge": (_STR, "logsumexp"),
    },
    "fusion": {
        # Grids bracket the production-recipe values (0.5, 0.7, 0.2). A
        # single shared source LM serves both transducers in combination.
        "mu_grid": (_FLOATS, DEFAULT_MU_GRID),
        "lam_grid": (_FLOATS, DEFAULT_LAM_GRID),
        "rho_grid": (_FLOATS, DEFAULT_RHO_GRID),
        "combination_alpha": (_FLOAT, 0.5),
        "combination_beta": (_FLOAT, 0.5),
    },
    "experiment": {
        "seed": (_INT, 0),
        "conditions": (_STRS, CONDITIONS),
        "sweep": (_BOOL, False),
        "sweep_epochs": (_INT, 0),  # 0 = same as training epochs
        "ablations": (_STRS, ()),
    },
}

ABLATION_KEYS = (
    "no_switchout",
    "no_sequence_noise",
    "no_specaugment",
    "no_dropconnect",
    "no_speed_tempo",
)


def default_config() -> dict:
    return {
        section: {key: spec[1] for key, spec in keys.items()}
        for section, keys in CONFIG_SCHEMA.items()
    }


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
    for mode in config["model"]["modes"]:
        if mode not in ("additive", "multiplicative"):
            raise ConfigError(f"unknown joint mode {mode!r}")
    for cond in config["experiment"]["conditions"]:
        if cond not in CONDITIONS:
            raise ConfigError(f"unknown decode condition {cond!r}")
    for ablation in config["experiment"]["ablations"]:
        if ablation not in ABLATION_KEYS:
            raise ConfigError(f"unknown ablation {ablation!r}")
    if config["experiment"]["conditions"].count("combination") and len(
        config["model"]["modes"]
    ) < 2:
        raise ConfigError("combination condition needs two joint modes")


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
            lookahead=m["lookahead"] if not m["bidirectional"] else 0,
            aux_dim=t["aux_dim"],
            input_dim=input_dim,
        ),
        prediction=PredictionConfig(cells=m["prediction_cells"], embed_dim=m["embed_dim"]),
        joint_dim=m["joint_dim"],
        joint_mode=mode,
    )


def build_schedule(config: dict, kind: str | None = None, epochs: int | None = None) -> ScheduleConfig:
    tr = config["training"]
    total = tr["total_epochs"] or float(epochs if epochs is not None else tr["epochs"])
    total = max(1.0, total)  # degenerate zero-epoch runs still need a valid shape
    return ScheduleConfig(
        kind=kind or tr["schedule"],
        base_lr=tr["base_lr"],
        decay_factor=tr["decay_factor"],
        decay_start_epoch=tr["decay_start_epoch"],
        start_lr=tr["start_lr"],
        peak_lr=tr["peak_lr"],
        warmup_epochs=min(tr["warmup_epochs"], total / 2),
        total_epochs=total,
    )


def build_optimizer(config: dict, kind: str | None = None) -> OptimizerConfig:
    tr = config["training"]
    return OptimizerConfig(
        kind=kind or tr["optimizer"],
        momentum=tr["momentum"],
        beta1=tr["beta1"],
        beta2=tr["beta2"],
        eps=tr["eps"],
        weight_decay=tr["weight_decay"],
        clip_norm=tr["clip_norm"],
    )


def build_recipe(config: dict, ablation: str | None = None, epochs: int | None = None,
                 optimizer_kind: str | None = None, schedule_kind: str | None = None) -> TrainingRecipe:
    tr = config["training"]
    t = config["task"]
    switchout = tr["switchout"] and ablation != "no_switchout"
    seq_noise = tr["sequence_noise"] and ablation != "no_sequence_noise"
    specaug = tr["specaugment"] and ablation != "no_specaugment"
    dropconnect = tr["dropconnect_rate"] if ablation != "no_dropconnect" else 0.0
    replicas = (
        (("speed", 0.9), ("speed", 1.1), ("tempo", 0.9), ("tempo", 1.1))
        if tr["speed_tempo_replicas"] and ablation != "no_speed_tempo"
        else ()
    )
    n_epochs = epochs if epochs is not None else tr["epochs"]
    return TrainingRecipe(
        epochs=n_epochs,
        batch_size=tr["batch_size"],
        optimizer=build_optimizer(config, optimizer_kind),
        schedule=build_schedule(config, schedule_kind, n_epochs),
        dropconnect_rate=dropconnect,
        switchout=(
            SwitchoutConfig(temperature=tr["switchout_temperature"], vocab=t["num_labels"])
            if switchout
            else None
        ),
        sequence_noise=(
            NoiseInjectConfig(
                probability=tr["noise_probability"],
                scale=tr["noise_scale"],
                length_tolerance=tr["noise_length_tolerance"],
            )
            if seq_noise
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
            if specaug
            else None
        ),
        replicas=replicas,
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
            lines.append(
                f"{row['optimizer']:<14} {row['schedule']:<12} "
                f"{_pct(row['dev_wer']):>8} {_pct(row['test_wer']):>9}"
            )
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


def stage_generate(config: dict, run_dir: Path, rng: RandomStream):
    task = generate_synthetic_task(build_task_config(config), rng.child(1))
    datasets = {"train": task.train, "dev": task.dev, "test": task.test}
    if config["task"]["delta_features"]:
        datasets = {k: _apply_deltas(v) for k, v in datasets.items()}
    for split, ds in datasets.items():
        write_features(run_dir / f"features_{split}.bin", ds)
        write_transcripts(run_dir / f"transcripts_{split}.tsv", ds, task.alphabet)
    factor = config["task"]["external_text_factor"]
    extra = sample_text_corpus(task, max(0, (factor - 1)) * len(task.train), rng.child(2))
    write_transcripts(run_dir / "external_text.tsv",
                      {f"ext-{i:05d}": seq for i, seq in enumerate(extra)}, task.alphabet)
    return task, datasets


def load_run_data(config: dict, run_dir: Path):
    alphabet = Alphabet(
        config["task"]["num_labels"], separator=config["task"]["num_labels"] - 1
    )
    datasets = {}
    for split in ("train", "dev", "test"):
        ds = read_features(run_dir / f"features_{split}.bin")
        attach_transcripts(ds, read_transcripts(run_dir / f"transcripts_{split}.tsv", alphabet))
        datasets[split] = ds
    return alphabet, datasets


def stage_train_mode(config, run_dir, rng, datasets, alphabet, mode, ablation=None,
                     epochs=None, optimizer_kind=None, schedule_kind=None, tag=None):
    tag = tag or mode
    n_epochs = epochs if epochs is not None else config["training"]["epochs"]
    checkpoint = Path(run_dir) / f"model_{tag}.npz"
    if n_epochs == 0 and checkpoint.exists():
        # Decode-only runs: reuse the existing checkpoint untouched.
        model, _ = load_checkpoint(checkpoint)
        return model, train(
            model, datasets["train"],
            build_recipe(config, ablation, 0, optimizer_kind, schedule_kind),
            rng.child(11),
        )
    model_config = build_model_config(config, mode)
    model = init_model(model_config, rng.child(10))
    if config["model"]["encoder_init"]:
        load_encoder_init(model, config["model"]["encoder_init"])
    recipe = build_recipe(config, ablation, epochs, optimizer_kind, schedule_kind)
    result = train(
        model, datasets["train"], recipe, rng.child(11), dev_set=datasets["dev"],
        alphabet=alphabet,
    )
    save_checkpoint(run_dir / f"model_{tag}.npz", model, {"mode": mode, "tag": tag})
    with atomic_write(run_dir / f"metrics_{tag}.jsonl") as f:
        for record in result.metrics:
            f.write(json.dumps(record.to_dict()) + "\n")
    return model, result


def stage_train_lms(config, run_dir, rng, datasets, alphabet):
    train_texts = [utt.labels for utt in datasets["train"]]
    external_texts = list(train_texts)
    ext_path = run_dir / "external_text.tsv"
    if ext_path.exists():
        extra = read_transcripts(ext_path, alphabet)
        external_texts.extend(extra[k] for k in sorted(extra))
    num_labels = config["task"]["num_labels"]
    lm_cfg = config["lm"]
    from .networks import init_char_lm_params

    source = init_char_lm_params(num_labels, build_lm_config(config, "source"), rng.child(20))
    train_char_lm(
        source, train_texts, rng.child(21), epochs=lm_cfg["epochs"],
        batch_size=lm_cfg["batch_size"], lr=lm_cfg["lr"],
    )
    external = init_char_lm_params(num_labels, build_lm_config(config, "external"), rng.child(22))
    train_char_lm(
        external, external_texts, rng.child(23), epochs=lm_cfg["epochs"],
        batch_size=lm_cfg["batch_size"], lr=lm_cfg["lr"],
    )
    save_char_lm(run_dir / "lm_source.npz", source, build_lm_config(config, "source"),
                 {"corpus_sequences": len(train_texts)})
    save_char_lm(run_dir / "lm_external.npz", external, build_lm_config(config, "external"),
                 {"corpus_sequences": len(external_texts)})
    return source, external


def decode_dataset(model, dataset: Dataset, config: dict) -> list:
    """ALSD n-best per utterance; falls back to the greedy path when the
    beam cannot complete. Returns (utt_id, hypotheses) pairs ordered by id."""
    d = config["decoding"]
    skip = config["model"]["skip"]
    records = []
    for utt in sorted(dataset, key=lambda u: u.utt_id):
        features = utt.frames.astype(np.float64)
        t_stacked = (utt.num_frames + skip - 1) // skip
        cap = d["expansion_factor"] * max(1, t_stacked)
        try:
            nbest = alsd_beam(
                model,
                features,
                beam_width=d["beam_width"],
                n_best=d["n_best"],
                expansion_cap=cap,
                merge=d["merge"],
                aux=utt.aux,
            )
            hyps = list(nbest)
        except DecodeError:
            logger.warning("beam failed on %s; falling back to greedy", utt.utt_id)
            greedy = greedy_decode(model, features, aux=utt.aux)
            H = model.encode_features(features, utt.aux)
            trans = -model.lattice_nll(H, list(greedy.labels))
            hyps = [
                Hypothesis(
                    labels=greedy.labels,
                    t_progress=H.shape[0],
                    score=trans,
                    transducer=trans,
                )
            ]
        records.append((utt.utt_id, hyps))
    return records


def attach_lm_components(records, source_lm, external_lm):
    """The n-best file rows of decoder records: each hypothesis with its
    alignment length, transducer score and full-sequence LM scores. An LM
    given as None scores 0.0. Each distinct label sequence is scored once
    per LM, and each LM keeps one `PrefixStates` table for the call, so a
    prefix shared by many hypotheses runs through the label network once.
    Scoring happens inside the one pass over `records`: each utterance's
    sequences fill the tables (a block step per depth), then are scored."""
    out = []
    cache: dict[tuple, tuple] = {}
    lms = [(lm, None if lm is None else PrefixStates(lm)) for lm in (source_lm, external_lm)]
    for utt_id, hyps in records:
        for lm, table in lms:
            if lm is not None:
                table.rows(dict.fromkeys(hyp.labels for hyp in hyps))
        rows = []
        for hyp in hyps:
            if hyp.labels not in cache:
                cache[hyp.labels] = tuple(
                    lm_score(hyp.labels, lm, table)[0] if lm is not None else 0.0
                    for lm, table in lms
                )
            src, ext = cache[hyp.labels]
            rows.append(NBestRecord(hyp.labels, hyp.alignment_length, hyp.transducer, src, ext))
        out.append((utt_id, rows))
    return out


def decode_to_nbest(path, model, dataset: Dataset, config: dict, alphabet, source_lm,
                    external_lm) -> list:
    """Decode `dataset` (`decode_dataset`), fill the LM columns
    (`attach_lm_components`) and write the n-best file at `path`; returns
    the file's (utt_id, rows) records."""
    records = attach_lm_components(decode_dataset(model, dataset, config), source_lm, external_lm)
    write_nbest(path, records, alphabet)
    return records


def stage_decode(config, run_dir, models, datasets, alphabet, source_lm, external_lm):
    for mode, model in models.items():
        for split in ("dev", "test"):
            decode_to_nbest(run_dir / f"nbest_{mode}_{split}.tsv", model, datasets[split],
                            config, alphabet, source_lm, external_lm)


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


def condition_entry(run_dir, tag: str, dev, test, grid: dict) -> dict:
    """Tune on the `dev` CachedNBests over `grid`, write the weights to
    `weights_{tag}.json` and return the report entry. The dev WER is the
    tuned cell's, which equals `top1_wer(dev, weights)` bit for bit."""
    tuned = tune_weights(dev, **grid)
    weights = asdict(tuned.weights)
    with atomic_write(run_dir / f"weights_{tag}.json") as fh:
        json.dump(weights, fh)
    return {"dev_wer": tuned.wer, "test_wer": top1_wer(test, tuned.weights), "weights": weights}


def stage_fusion_conditions(config, run_dir, models, datasets, alphabet,
                            source_lm, external_lm, report: ExperimentReport):
    """Tune and score every configured condition from the n-best files,
    each read once and shared by all conditions; combination comes last.
    The LM components come from those files, which `stage_decode` filled;
    `source_lm` and `external_lm` are not read."""
    refs = {
        split: {u.utt_id: u.labels for u in datasets[split]} for split in ("dev", "test")
    }
    rows = {
        (mode, split): read_nbest(run_dir / f"nbest_{mode}_{split}.tsv", alphabet)
        for mode in models for split in ("dev", "test")
    }
    cached = {key: cached_nbests(r, alphabet, refs[key[1]]) for key, r in rows.items()}
    for condition in sorted(config["experiment"]["conditions"], key=lambda c: c == "combination"):
        if condition != "combination":
            scored = {mode: (f"{condition}_{mode}", cached[mode, "dev"], cached[mode, "test"])
                      for mode in models}
        elif len(models) >= 2:
            union = stage_combination(run_dir, models, datasets, alphabet, refs, rows)
            scored = {"+".join(list(models)[:2]): ("combination", union["dev"], union["test"])}
        else:
            continue
        grid = condition_grid(config, condition)
        report.conditions[condition] = {
            name: condition_entry(run_dir, tag, dev, test, grid)
            for name, (tag, dev, test) in scored.items()
        }


def stage_combination(run_dir, models, datasets, alphabet, refs, rows) -> dict:
    """Cross-score the union of the first two modes' n-best lists, given as
    `rows[mode, split]` (`read_nbest` output), write the `combine_rescore`
    rows, ranked by the first mode's score, to `combination_{split}.tsv`
    and return their CachedNBests by split. The LM columns are the n-best
    files' own."""
    mode_a, mode_b = list(models)[:2]
    cached = {}
    for split in ("dev", "test"):
        nb_a, nb_b = rows[mode_a, split], rows[mode_b, split]
        unions = {}
        for utt in sorted(datasets[split], key=lambda u: u.utt_id):
            unions[utt.utt_id] = combine_rescore(
                utt.frames.astype(np.float64),
                nb_a.get(utt.utt_id, []),
                nb_b.get(utt.utt_id, []),
                models[mode_a],
                models[mode_b],
                aux=utt.aux,
            )
        write_nbest(run_dir / f"combination_{split}.tsv", unions.items(), alphabet)
        cached[split] = cached_nbests(unions, alphabet, refs[split])
    return cached


def stage_sweep(config, run_dir, rng, datasets, alphabet, report: ExperimentReport):
    """Optimizer x schedule grid in the style of the production study."""
    mode = config["model"]["modes"][0]
    epochs = config["experiment"]["sweep_epochs"] or config["training"]["epochs"]
    for opt_kind in ("momentum_sgd", "adamw"):
        for sched_kind in ("const_decay", "one_cycle"):
            tag = f"sweep_{opt_kind}_{sched_kind}"
            model, result = stage_train_mode(
                config, run_dir, rng.child(hash_tag(tag)), datasets, alphabet, mode,
                epochs=epochs, optimizer_kind=opt_kind, schedule_kind=sched_kind, tag=tag,
            )
            test_wer = _greedy_wer(model, datasets["test"], alphabet)
            report.sweep.append(
                {
                    "optimizer": opt_kind,
                    "schedule": sched_kind,
                    "dev_wer": result.metrics[-1].dev_wer if result.metrics else None,
                    "test_wer": test_wer,
                }
            )


def hash_tag(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")


def _greedy_wer(model, dataset, alphabet) -> float:
    errors = 0
    words = 0
    for utt in sorted(dataset, key=lambda u: u.utt_id):
        result = greedy_decode(model, utt.frames.astype(np.float64), aux=utt.aux)
        _, s, d, i = compute_wer(
            alphabet.words(utt.labels), alphabet.words(result.labels)
        )
        errors += s + d + i
        words += len(alphabet.words(utt.labels))
    return errors / max(1, words)


def stage_ablations(config, run_dir, rng, datasets, alphabet, source_lm, external_lm,
                    report: ExperimentReport):
    mode = config["model"]["modes"][0]
    for ablation in config["experiment"]["ablations"]:
        tag = f"ablation_{ablation}"
        model, _ = stage_train_mode(
            config, run_dir, rng.child(hash_tag(tag)), datasets, alphabet, mode,
            ablation=ablation, tag=tag,
        )
        cached = {}
        for split in ("dev", "test"):
            records = decode_to_nbest(run_dir / f"nbest_{tag}_{split}.tsv", model,
                                      datasets[split], config, alphabet, source_lm, external_lm)
            refs = {u.utt_id: u.labels for u in datasets[split]}
            cached[split] = cached_nbests(dict(records), alphabet, refs)
        tuned = tune_weights(cached["dev"], **condition_grid(config, "density_ratio")).weights
        report.ablations[ablation] = {
            "no_lm_test_wer": top1_wer(cached["test"], FusionWeights()),
            "density_ratio_test_wer": top1_wer(cached["test"], tuned),
            "weights": asdict(tuned),
        }


# ---------------------------------------------------------------------------
# Orchestration


def run_experiment(config: dict, run_dir) -> ExperimentReport:
    """Execute every stage; on failure, return a partial report naming the
    failed stage. Fully deterministic under the configured seed."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    seed = config["experiment"]["seed"]
    rng = RandomStream(seed)
    report = ExperimentReport(
        config_fingerprint=config_fingerprint(config),
        seed=seed,
        modes=list(config["model"]["modes"]),
    )
    write_config(run_dir / "config.ini", config)
    stage = "generate"
    try:
        task, datasets = stage_generate(config, run_dir, rng.child(100))
        alphabet = task.alphabet

        stage = "train"
        models = {}
        for i, mode in enumerate(config["model"]["modes"]):
            model, result = stage_train_mode(
                config, run_dir, rng.child(200 + i), datasets, alphabet, mode
            )
            models[mode] = model
            report.epochs[mode] = [r.report_dict() for r in result.metrics]

        stage = "train_lms"
        source_lm, external_lm = stage_train_lms(
            config, run_dir, rng.child(300), datasets, alphabet
        )

        stage = "decode"
        stage_decode(config, run_dir, models, datasets, alphabet, source_lm, external_lm)

        stage = "fuse_score"
        stage_fusion_conditions(
            config, run_dir, models, datasets, alphabet, source_lm, external_lm, report
        )

        if config["experiment"]["sweep"]:
            stage = "sweep"
            stage_sweep(config, run_dir, rng.child(400), datasets, alphabet, report)

        if config["experiment"]["ablations"]:
            stage = "ablations"
            stage_ablations(
                config, run_dir, rng.child(500), datasets, alphabet,
                source_lm, external_lm, report,
            )

        stage = "report"
        _write_report(run_dir, report)
    except (WorkbenchError, OSError) as exc:
        report.failure_stage = stage
        report.failure_message = str(exc)
        _write_report(run_dir, report)
    return report


def _write_report(run_dir: Path, report: ExperimentReport):
    with atomic_write(run_dir / "report.json") as f:
        json.dump(report.to_dict(), f, indent=2)
    with atomic_write(run_dir / "report.txt") as f:
        f.write(render_report(report))


def load_report(run_dir) -> dict:
    """The parsed `report.json`. ContractViolation ("malformed report")
    unless it is JSON holding exactly the fields of an ExperimentReport."""
    with open(Path(run_dir) / "report.json", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"malformed report: {exc}") from exc
    ExperimentReport.from_dict(data)
    return data


def verify_report(run_dir) -> list[str]:
    """Recompute every reported condition, ablation and sweep WER from the
    stored n-best, combination, weight, checkpoint and reference files,
    reading each file once; returns a list of discrepancies (empty =
    verified)."""
    run_dir = Path(run_dir)
    report = load_report(run_dir)
    config = parse_config(run_dir / "config.ini")
    alphabet = Alphabet(
        config["task"]["num_labels"], separator=config["task"]["num_labels"] - 1
    )
    refs = {
        split: read_transcripts(run_dir / f"transcripts_{split}.tsv", alphabet)
        for split in ("dev", "test")
    }

    @functools.cache
    def load(stem, split):
        rows = read_nbest(run_dir / f"{stem}_{split}.tsv", alphabet)
        return cached_nbests(rows, alphabet, refs[split])

    @functools.cache
    def utterances(split):
        dataset = read_features(run_dir / f"features_{split}.bin")
        attach_transcripts(dataset, refs[split])
        return dataset

    problems = []

    def check(label, reported, recomputed):
        if abs(recomputed - reported) > 1e-12:
            problems.append(f"{label}: reported {reported}, recomputed {recomputed}")

    for condition, entries in report["conditions"].items():
        for name, entry in entries.items():
            stem = "combination" if condition == "combination" else f"nbest_{name}"
            weights = weights_from_dict(entry["weights"])
            for split in ("dev", "test"):
                check(f"{condition}/{name}/{split}", entry[f"{split}_wer"],
                      top1_wer(load(stem, split), weights))
    for name, entry in report["ablations"].items():
        rows = load(f"nbest_ablation_{name}", "test")
        check(f"ablations/{name}/no_lm_test", entry["no_lm_test_wer"],
              top1_wer(rows, FusionWeights()))
        check(f"ablations/{name}/density_ratio_test", entry["density_ratio_test_wer"],
              top1_wer(rows, weights_from_dict(entry["weights"])))
    for row in report["sweep"]:
        optimizer, schedule = row["optimizer"], row["schedule"]
        model, _ = load_checkpoint(run_dir / f"model_sweep_{optimizer}_{schedule}.npz")
        for split in ("dev", "test"):
            if row[f"{split}_wer"] is not None:  # None: no epoch was trained
                check(f"sweep/{optimizer}/{schedule}/{split}", row[f"{split}_wer"],
                      _greedy_wer(model, utterances(split), alphabet))
    return problems
