import ast
import collections
import copy
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import logging
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from transducer_workbench import experiment, fusion, networks
from transducer_workbench.cli import main as cli_main
from transducer_workbench.data import (
    Alphabet,
    generate_synthetic_task,
    read_features,
    read_transcripts,
    write_features,
    write_transcripts,
)
from transducer_workbench.errors import (ConfigError, ContractViolation, IngestError,
                                         TrainingDiverged)
from transducer_workbench.experiment import (
    ABLATIONS,
    CONFIG_SCHEMA,
    ExperimentReport,
    CONDITIONS,
    LM_NAMES,
    artifact,
    build_lm_config,
    build_model_config,
    build_recipe,
    build_task_config,
    condition_grid,
    config_fingerprint,
    decode_dataset,
    default_config,
    format_config,
    load_report,
    load_run_data,
    parse_config,
    run_experiment,
    stage_combination,
    stage_decode,
    stage_fusion_conditions,
    verify_report,
    weights_from_dict,
    with_settings,
    write_config,
)
from transducer_workbench.fusion import (
    CombinationWeights,
    FusionWeights,
    cached_nbests,
    read_nbest,
    top1_wer,
)
from transducer_workbench.lattice import BLANK_ID
from transducer_workbench.model import (
    _write_container,
    init_model,
    load_char_lm,
    load_checkpoint,
    save_char_lm,
    save_checkpoint,
)
from transducer_workbench.networks import (CharLMConfig, PrefixStates, init_char_lm_params,
                                           lm_score)
from transducer_workbench.numerics import RandomStream


def tiny_config(**overrides):
    cfg = default_config()
    cfg["task"].update(
        num_labels=5, feature_dim=6, train_size=24, dev_size=6, test_size=6,
        length_min=2, length_max=4, external_text_factor=2, noise_level=0.2,
    )
    cfg["model"].update(
        encoder_layers=1, encoder_cells=12, prediction_cells=10, joint_dim=8,
        embed_dim=6,
    )
    cfg["training"].update(epochs=2, batch_size=8, freq_max_width=2, time_max_width=3)
    cfg["lm"].update(epochs=1, source_cells=10, external_cells=10)
    cfg["decoding"].update(beam_width=4, n_best=4)
    cfg["fusion"].update(mu_grid=(0.0, 0.3), lam_grid=(0.0, 0.3), rho_grid=(0.0,))
    for section, values in overrides.items():
        cfg[section].update(values)
    return cfg


class TestConfigParsing:
    def test_defaults_round_trip(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "config.ini"
        write_config(path, cfg)
        back = parse_config(path)
        assert back == cfg
        assert config_fingerprint(back) == config_fingerprint(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[task]\nnum_lables = 8\n")
        with pytest.raises(ConfigError, match="num_lables"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[tasks]\nnum_labels = 8\n")
        with pytest.raises(ConfigError, match="tasks"):
            parse_config(path)

    def test_type_error_rejected(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[task]\nnum_labels = many\n")
        with pytest.raises(ConfigError, match="num_labels"):
            parse_config(path)

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[training]\nswitchout = off\nsequence_noise = yes\n")
        cfg = parse_config(path)
        assert cfg["training"]["switchout"] is False
        assert cfg["training"]["sequence_noise"] is True

    def test_grid_parsing(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[fusion]\nmu_grid = 0.0, 0.25, 0.5\n")
        cfg = parse_config(path)
        assert cfg["fusion"]["mu_grid"] == (0.0, 0.25, 0.5)

    def test_combination_needs_two_modes(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[model]\nmodes = additive\n")
        with pytest.raises(ConfigError, match="combination"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.ini")

    @pytest.mark.parametrize("section, key, raw, match", [
        ("model", "modes", "", r"\[model\] modes"),
        ("decoding", "merge", "maxx", r"\[decoding\] merge"),
        ("decoding", "beam_width", "0", r"\[decoding\] beam_width"),
        ("decoding", "n_best", "0", r"\[decoding\] n_best"),
        ("decoding", "expansion_factor", "0", r"\[decoding\] expansion_factor"),
        ("training", "optimizer", "adam", r"\[training\] optimizer"),
        ("training", "schedule", "cosine", r"\[training\] schedule"),
        ("training", "switchout_temperature", "0", r"\[training\] switchout_temperature"),
        ("training", "noise_probability", "1.5", r"\[training\] noise_probability"),
        ("training", "noise_scale", "-1", r"\[training\] noise_scale"),
        ("training", "warmup_epochs", "-1", r"\[training\] warmup_epochs"),
    ])
    def test_setting_a_later_stage_refuses_is_rejected(self, tmp_path, section, key, raw, match):
        path = tmp_path / "config.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n"
                        "[experiment]\nconditions = no_lm\nablations = no_switchout\n")
        with pytest.raises(ConfigError, match=match):
            parse_config(path)


class TestRecipeBuilder:
    # The recipe field each ablation turns off.
    PARTS = {
        "no_switchout": "switchout",
        "no_sequence_noise": "sequence_noise",
        "no_specaugment": "specaugment",
        "no_dropconnect": "dropconnect_rate",
        "no_speed_tempo": "replicas",
    }

    def test_ablation_toggles(self):
        # Each ablation's config copy gives the base recipe with exactly
        # its own part turned off.
        cfg = tiny_config(training={"speed_tempo_replicas": True})
        base = build_recipe(cfg)
        assert set(ABLATIONS) == set(self.PARTS)
        for ablation, (key, value) in ABLATIONS.items():
            part = self.PARTS[ablation]
            ablated = build_recipe(with_settings(cfg, "training", **{key: value}))
            assert getattr(base, part), ablation
            assert not getattr(ablated, part), ablation
            assert dataclasses.replace(ablated, **{part: getattr(base, part)}) == base, ablation

    def test_every_ablation_sets_one_training_key_of_its_type(self):
        # Each ablation value, each sweep cell and every default lies in its
        # key's domain: `with_settings` raises otherwise.
        kinds = {"bool": bool, "int": int, "float": float, "str": str}
        for ablation, (key, value) in ABLATIONS.items():
            assert key in CONFIG_SCHEMA["training"], ablation
            assert type(value) is kinds[CONFIG_SCHEMA["training"][key][0]], ablation
            with_settings(default_config(), "training", **{key: value})
        for optimizer, schedule in experiment.SWEEP.values():
            with_settings(default_config(), "training", optimizer=optimizer, schedule=schedule)
        with_settings(default_config(), "task")

    def test_builders_set_every_field_of_what_they_build(self):
        # Each dataclass that an `experiment.build_*` function constructs
        # gets every field by keyword, so every task, model, recipe and LM
        # field follows a config key: a field left at its class default
        # would be a setting that no run can change.
        tree = ast.parse(Path(experiment.__file__).read_text(encoding="utf-8"))
        built = set()
        for function in tree.body:
            if not (isinstance(function, ast.FunctionDef) and function.name.startswith("build_")):
                continue
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                cls = getattr(experiment, node.func.id, None)
                if not dataclasses.is_dataclass(cls):
                    continue
                fields = {field.name for field in dataclasses.fields(cls) if field.init}
                passed = {keyword.arg for keyword in node.keywords}
                assert not node.args and passed == fields, (
                    f"{function.name}: {cls.__name__} misses {sorted(fields - passed)}")
                built.add(cls.__name__)
        assert built == {"SyntheticTaskConfig", "ModelConfig", "EncoderConfig", "PredictionConfig",
                         "TrainingRecipe", "OptimizerConfig", "ScheduleConfig", "SwitchoutConfig",
                         "NoiseInjectConfig", "SpecAugmentConfig", "CharLMConfig"}

    def test_with_settings_leaves_its_input_unchanged(self):
        cfg = tiny_config()
        before = copy.deepcopy(cfg)
        changed = with_settings(cfg, "training", epochs=7, optimizer="momentum_sgd")
        assert cfg == before
        assert changed["training"]["epochs"] == 7
        assert changed["training"]["optimizer"] == "momentum_sgd"
        changed["task"]["num_labels"] = 99  # the copy shares no section with its input
        assert cfg == before


class TestConditionGrid:
    def test_grids(self):
        cfg = tiny_config()
        f = cfg["fusion"]
        zero = (0.0,)
        assert condition_grid(cfg, "no_lm") == {"mu_grid": zero, "lam_grid": zero, "rho_grid": zero}
        assert condition_grid(cfg, "shallow") == {
            "mu_grid": zero, "lam_grid": f["lam_grid"], "rho_grid": f["rho_grid"]}
        assert condition_grid(cfg, "density_ratio") == {
            "mu_grid": f["mu_grid"], "lam_grid": f["lam_grid"], "rho_grid": f["rho_grid"]}
        assert condition_grid(cfg, "combination") == {
            **condition_grid(cfg, "density_ratio"),
            "alpha_beta_grid": ((f["combination_alpha"], f["combination_beta"]),),
        }


class TestRunExperiment:
    def test_full_pipeline_and_verify(self, tmp_path):
        cfg = tiny_config()
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None
        assert set(report.conditions) == {
            "no_lm", "shallow", "density_ratio", "combination",
        }
        for cond, entries in report.conditions.items():
            for entry in entries.values():
                assert 0.0 <= entry["dev_wer"]
                assert 0.0 <= entry["test_wer"]
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "nbest_additive_test.tsv").exists()
        assert verify_report(tmp_path / "run") == []

    def test_combination_lm_columns_are_full_sequence_scores(self, tmp_path):
        cfg = tiny_config(experiment={"conditions": ("combination",)})
        run_dir = tmp_path / "run"
        report = run_experiment(cfg, run_dir)
        assert report.failure_stage is None
        num_labels = cfg["task"]["num_labels"]
        alphabet = Alphabet(num_labels, separator=num_labels - 1)
        source_lm, _ = load_char_lm(run_dir / "lm_source.npz")
        external_lm, _ = load_char_lm(run_dir / "lm_external.npz")
        rows = 0
        for split in ("dev", "test"):
            with open(run_dir / f"combination_{split}.tsv", encoding="utf-8") as f:
                for line in f:
                    _, text, _, _, _, src, ext = line.rstrip("\n").split("\t")
                    labels = alphabet.to_labels(text)
                    assert float(src) == lm_score(labels, source_lm)
                    assert float(ext) == lm_score(labels, external_lm)
                    rows += 1
        assert rows > 0

    def test_seed_determinism(self, tmp_path):
        cfg = tiny_config()
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        assert a.epochs["additive"][0]["train_nll"] == b.epochs["additive"][0]["train_nll"]
        assert a.conditions == b.conditions

    def test_failure_produces_partial_report(self, tmp_path):
        cfg = tiny_config(model={"encoder_init": str(tmp_path / "missing.npz")})
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage == "train"
        assert (tmp_path / "run" / "report.json").exists()

    def test_cap_of_one_step_per_frame_gives_the_all_blank_row(self, caplog):
        # A cap of T' steps (expansion_factor 1) leaves room for no label, so
        # every utterance completes with the all-blank path alone: one row of
        # alignment length T', scored by the sum of the blank log-probs, with
        # zero LM components, and nothing logged.
        cfg = tiny_config(decoding={"beam_width": 1, "expansion_factor": 1})
        task = generate_synthetic_task(build_task_config(cfg), RandomStream(1))
        model = init_model(build_model_config(cfg, "additive"), RandomStream(10))
        with caplog.at_level("DEBUG"):
            records = decode_dataset(model, task.test, cfg)
        assert [utt_id for utt_id, _ in records] == sorted(u.utt_id for u in task.test)
        assert caplog.records == []
        for utt in task.test:
            H = model.encode_features(utt.frames.astype(np.float64), utt.aux)
            blanks = model.logprob_lattice(H, [])[:, 0, BLANK_ID].sum()
            [row] = dict(records)[utt.utt_id]
            assert row.labels == ()
            assert row.length == H.shape[0]
            assert row.transducer_a == pytest.approx(blanks, abs=1e-12)
            assert (row.source_lm, row.external_lm) == (0.0, 0.0)

    def test_sweep_rows(self, tmp_path):
        cfg = tiny_config(experiment={"sweep": True, "sweep_epochs": 1,
                                      "conditions": ("no_lm",)})
        cfg["model"]["modes"] = ("additive",)
        before = copy.deepcopy(cfg)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None
        assert cfg == before
        assert len(report.sweep) == 4
        combos = {(r["optimizer"], r["schedule"]) for r in report.sweep}
        assert combos == {
            ("momentum_sgd", "const_decay"),
            ("momentum_sgd", "one_cycle"),
            ("adamw", "const_decay"),
            ("adamw", "one_cycle"),
        }
        for row in report.sweep:
            assert row["test_wer"] is not None

    def test_lm_divergence_names_epoch_and_step(self, tmp_path):
        # The LMs train through the transducer's loop and report a
        # divergence the same way.
        report = run_experiment(tiny_config(lm={"lr": 1e300}), tmp_path / "run")
        assert report.failure_stage == "train_lms"
        assert re.match(r"epoch \d+, step \d+, sequences \[", report.failure_message)
        assert DIVERGED.search(report.failure_message), report.failure_message

    def test_ablation_rows(self, tmp_path):
        cfg = tiny_config(
            experiment={"ablations": ("no_sequence_noise",), "conditions": ("no_lm",)}
        )
        cfg["model"]["modes"] = ("additive",)
        before = copy.deepcopy(cfg)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None
        assert cfg == before
        assert "no_sequence_noise" in report.ablations
        entry = report.ablations["no_sequence_noise"]
        assert "no_lm_test_wer" in entry and "density_ratio_test_wer" in entry

    def test_delta_features(self, tmp_path):
        cfg = tiny_config(task={"delta_features": True},
                          experiment={"conditions": ("no_lm",)})
        cfg["model"]["modes"] = ("additive",)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None


# Settings of zero that crashed a stage, or scored no words, before the
# parse-time check.
ZERO_CRASHED = [
    *(("task", key) for key in ("feature_dim", "train_size", "dev_size", "test_size")),
    *(("model", key) for key in ("encoder_layers", "encoder_cells", "stacking", "skip",
                                 "prediction_cells", "embed_dim", "joint_dim")),
    *(("lm", f"{which}_{key}") for which in ("source", "external")
      for key in ("layers", "cells", "embed_dim")),
]

# Settings that parsed, then gave a traceback, exited 2 after writing, or ran
# to a clean report with a meaningless value: (id, section, key, settings).
OUT_OF_DOMAIN = [
    ("markov_concentration-negative", "task", "markov_concentration",
     {"task": {"markov_concentration": -1.0}}),
    ("max_time_ratio-negative", "training", "max_time_ratio", {"training": {"max_time_ratio": -1.0}}),
    ("time_max_width-negative", "training", "time_max_width", {"training": {"time_max_width": -1}}),
    ("num_labels-zero", "task", "num_labels", {"task": {"num_labels": 0}}),
    ("num_labels-27", "task", "num_labels", {"task": {"num_labels": 27}}),
    ("noise_level-negative", "task", "noise_level", {"task": {"noise_level": -1.0}}),
    ("aux_dim-negative", "task", "aux_dim", {"task": {"aux_dim": -1}}),
    ("frames_per_symbol-zero", "task", "frames_per_symbol_min",
     {"task": {"frames_per_symbol_min": 0, "frames_per_symbol_max": 0}}),
    ("dropconnect_rate-1.5", "training", "dropconnect_rate", {"training": {"dropconnect_rate": 1.5}}),
    ("eps-zero", "training", "eps", {"training": {"eps": 0.0}}),
    ("beta2-one", "training", "beta2", {"training": {"beta2": 1.0}}),
    ("lm-lr-nan", "lm", "lr", {"lm": {"lr": math.nan}}),
    ("noise_level-nan", "task", "noise_level", {"task": {"noise_level": math.nan}}),
    ("external_text_factor-zero", "task", "external_text_factor",
     {"task": {"external_text_factor": 0}}),
    ("epochs-negative", "training", "epochs", {"training": {"epochs": -1}}),
    ("freq_masks-negative", "training", "freq_masks", {"training": {"freq_masks": -1}}),
    ("noise_length_tolerance-negative", "training", "noise_length_tolerance",
     {"training": {"noise_length_tolerance": -1.0}}),
    ("decay_factor-negative", "training", "decay_factor",
     {"training": {"schedule": "const_decay", "decay_factor": -1.0}}),
    ("lookahead-negative", "model", "lookahead", {"model": {"bidirectional": False, "lookahead": -1}}),
    ("lookahead-bidirectional", "model", "lookahead",
     {"model": {"bidirectional": True, "lookahead": 3}}),
    ("sweep_epochs-negative", "experiment", "sweep_epochs",
     {"experiment": {"sweep": True, "sweep_epochs": -1}}),
    ("lm-lr-negative", "lm", "lr", {"lm": {"lr": -1.0}}),
    ("total_epochs-below-epochs", "training", "total_epochs", {"training": {"total_epochs": 1.0}}),
]


class TestPrefixTableScope:
    """A stage makes one prefix table per network and drops it when it
    returns: no model, label network or module keeps one. Otherwise a later
    call, such as a later benchmark round, would find its prefixes already
    stepped."""

    def test_stage_calls_step_the_same_rows_and_keep_no_table(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        task = generate_synthetic_task(build_task_config(cfg), RandomStream(1))
        datasets = {"dev": task.dev, "test": task.test}
        models = {mode: init_model(build_model_config(cfg, mode), RandomStream(10 + i))
                  for i, mode in enumerate(cfg["model"]["modes"])}
        lms = [init_char_lm_params(cfg["task"]["num_labels"], build_lm_config(cfg, which),
                                   RandomStream(20 + i)) for i, which in enumerate(LM_NAMES)]
        label_networks = [model.prediction for model in models.values()] + lms
        stepped = []  # label-network rows per stage call
        label_forward = networks._label_forward

        def counted(symbols, params, *args, **kwargs):
            stepped[-1] += np.asarray(symbols).size
            return label_forward(symbols, params, *args, **kwargs)

        def call(stage, *args):
            stepped.append(0)
            stage(*args)
            gc.collect()
            assert not [table for table in gc.get_objects() if isinstance(table, PrefixStates)
                        and any(table.params is params for params in label_networks)]
            for owner in [*models.values(), *label_networks]:
                assert not any(isinstance(value, PrefixStates) for value in vars(owner).values())

        monkeypatch.setattr(networks, "_label_forward", counted)
        for _ in range(2):
            call(stage_decode, cfg, tmp_path, models, datasets, task.alphabet, *lms)
        refs = {split: {u.utt_id: u.labels for u in ds} for split, ds in datasets.items()}
        rows = {(mode, split): read_nbest(tmp_path / artifact("nbest", mode, split), task.alphabet)
                for mode in models for split in datasets}
        for _ in range(2):
            call(stage_combination, cfg, tmp_path, models, datasets, task.alphabet, refs, rows)
        assert stepped[0] == stepped[1] > 0
        assert stepped[2] == stepped[3] > 0

    def test_combination_steps_each_prefix_once_per_model_per_split(self, tmp_path, monkeypatch):
        # `stage_combination` makes one table per model per split, which
        # every union of the split reads, so the label network steps each
        # distinct prefix of a split's unions (the root included) once per
        # model, and no union makes a table of its own.
        cfg = tiny_config()
        task = generate_synthetic_task(build_task_config(cfg), RandomStream(1))
        datasets = {"dev": task.dev, "test": task.test}
        models = {mode: init_model(build_model_config(cfg, mode), RandomStream(10 + i))
                  for i, mode in enumerate(cfg["model"]["modes"])}
        lms = [init_char_lm_params(cfg["task"]["num_labels"], build_lm_config(cfg, which),
                                   RandomStream(20 + i)) for i, which in enumerate(LM_NAMES)]
        stage_decode(cfg, tmp_path, models, datasets, task.alphabet, *lms)
        refs = {split: {u.utt_id: u.labels for u in ds} for split, ds in datasets.items()}
        rows = {(mode, split): read_nbest(tmp_path / artifact("nbest", mode, split), task.alphabet)
                for mode in models for split in datasets}
        tables = []

        class Recorded(PrefixStates):
            def __init__(self, params):
                super().__init__(params)
                tables.append(self)

        stepped = collections.Counter()  # label-network rows by network
        label_forward = networks._label_forward

        def counted(symbols, params, *args, **kwargs):
            stepped[id(params)] += np.asarray(symbols).size
            return label_forward(symbols, params, *args, **kwargs)

        monkeypatch.setattr(experiment, "PrefixStates", Recorded)
        monkeypatch.setattr(fusion, "PrefixStates", Recorded)
        monkeypatch.setattr(networks, "_label_forward", counted)
        stage_combination(cfg, tmp_path, models, datasets, task.alphabet, refs, rows)
        predictions = [model.prediction for model in models.values()]
        assert [id(table.params) for table in tables] == [id(p) for p in predictions] * 2
        expected = collections.Counter()
        for split, pair in zip(("dev", "test"), (tables[:2], tables[2:])):
            combined = read_nbest(tmp_path / artifact("combination", split), task.alphabet)
            prefixes = {(), *(row.labels[:u] for utt_rows in combined.values()
                              for row in utt_rows for u in range(1, len(row.labels) + 1))}
            assert len(prefixes) > 1
            for table in pair:
                assert set(table.index) == prefixes
                assert len(table.parents) == len(prefixes)
                expected[id(table.params)] += len(prefixes)
        assert stepped == expected


def bound_cases():
    """Per finite bound of each number key's interval: (section, key, a value
    just outside it, a value at it). "At" an open bound is just inside it."""
    for section, keys in CONFIG_SCHEMA.items():
        for key, (kind, _, domain) in keys.items():
            if not isinstance(domain, str):
                continue
            low, high = (float(bound) for bound in domain[1:-1].split(","))
            for side, bound, closed in ((-1, low, domain[0] == "["), (1, high, domain[-1] == "]")):
                if math.isinf(bound):
                    continue
                if kind == "int":
                    outside, at = (int(bound) + side, int(bound)) if closed else (
                        int(bound), int(bound) - side)
                else:
                    outside, at = (math.nextafter(bound, side * math.inf), bound) if closed else (
                        bound, bound - side * 1e-6)
                yield pytest.param(section, key, outside, at,
                                   id=f"{section}-{key}-{'low' if side < 0 else 'high'}")


# At its lower bound, a maximum takes its minimum with it, as `_validate`
# refuses a maximum below its minimum.
MINIMUM_OF = {"length_max": "length_min", "frames_per_symbol_max": "frames_per_symbol_min"}


class TestConfigDomains:
    @pytest.mark.parametrize("section, key, outside, at", bound_cases())
    def test_just_outside_a_bound_is_refused(self, tmp_path, capsys, section, key, outside, at):
        config = tmp_path / "config.ini"
        write_config(config, tiny_config(**{section: {key: outside}}))
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
            parse_config(config)
        run = tmp_path / "run"
        assert cli_main(["--config", str(config), "--run-dir", str(run), "run"]) == 1
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key}: ")
        assert not run.exists() or list(run.iterdir()) == []

    @pytest.mark.parametrize("section, key, outside, at", bound_cases())
    def test_at_a_bound_runs_and_verifies(self, tmp_path, capsys, section, key, outside, at):
        cfg = tiny_config(**{section: {key: at}})
        if key in MINIMUM_OF:
            cfg[section][MINIMUM_OF[key]] = min(at, cfg[section][MINIMUM_OF[key]])
        config = tmp_path / "config.ini"
        write_config(config, cfg)
        base = ["--config", str(config), "--run-dir", str(tmp_path / "run")]
        assert cli_main(base + ["run"]) == 0, capsys.readouterr().out
        assert cli_main(base + ["verify"]) == 0


# The joint draw's upper end for a number whose domain has none, or a wider
# one: at most this far above the lower end, so that a run stays small.
DRAW_SPAN = {"int": 4, "float": 10.0}


def key_values(kind, domain):
    """Values of one config key from its `CONFIG_SCHEMA` domain, sizes capped
    by `DRAW_SPAN`, bounds included: a list of names names each entry once,
    and a list is empty only where its domain allows it. The one free
    string key, `encoder_init`, names a checkpoint file, so it stays empty."""
    if kind == "bool":
        return st.booleans()
    if kind == "str":
        return st.sampled_from(domain) if domain else st.just("")
    if kind in ("str_list", "float_list"):
        names = kind == "str_list"
        each = st.sampled_from(domain.each) if names else key_values("float", domain.each)
        return st.lists(each, min_size=not domain.empty, max_size=3 if names else 2,
                        unique=names).map(tuple)
    if domain is None:  # any finite number
        return st.integers(-(2**40), 2**40) if kind == "int" else st.floats(-10.0, 10.0)
    low, high = (float(bound) for bound in domain[1:-1].split(","))
    high = min(high, low + DRAW_SPAN[kind])
    open_low, open_high = domain[0] == "(", domain[-1] == ")"
    if kind == "int":
        return st.integers(int(low) + open_low, int(high) - open_high)
    return st.floats(low, high, exclude_min=open_low, exclude_max=open_high)


@st.composite
def drawn_configs(draw):
    """One value for every key of every section, drawn jointly. Drawn
    independently, most configs break a rule between two keys, so half the
    draws are then moved, within the domains, to obey those rules and reach
    the stages."""
    config = draw(st.fixed_dictionaries({
        section: st.fixed_dictionaries({key: key_values(kind, domain)
                                        for key, (kind, _, domain) in keys.items()})
        for section, keys in CONFIG_SCHEMA.items()
    }))
    if draw(st.booleans()):
        t, m, tr, e = (config[s] for s in ("task", "model", "training", "experiment"))
        for low, high in (("length_min", "length_max"),
                          ("frames_per_symbol_min", "frames_per_symbol_max")):
            t[low], t[high] = sorted((t[low], t[high]))
        m["lookahead"] *= not m["bidirectional"]
        if len(m["modes"]) < 2:
            e["conditions"] = tuple(c for c in e["conditions"] if c != "combination")
        tr["total_epochs"] = max(tr["total_epochs"], tr["epochs"], e["sweep_epochs"])
    return config


# The stages whose training can diverge, and the words of a divergence.
TRAINING_STAGES = {"train", "train_lms", "ablations"}
DIVERGED = re.compile(r"non-finite|loss computation failed|overflow|invalid value")


class TestJointConfigDraws:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn_configs())
    def test_every_drawn_config_is_refused_or_runs_and_verifies(self, config):
        # Every key at once, each from its own domain, at small sizes: the
        # draw is refused at parse time, or the run verifies clean, or its
        # training diverged and the report names the stage it stopped in.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.ini"
            path.write_text(format_config(config), encoding="utf-8")
            try:
                parsed = parse_config(path)
            except ConfigError:
                event("refused")
                return
            report = run_experiment(parsed, Path(tmp) / "run")
            event(f"stopped in {report.failure_stage}" if report.failure_stage else "verified")
            if report.failure_stage is None:
                assert verify_report(Path(tmp) / "run") == []
            else:
                assert report.failure_stage in TRAINING_STAGES, report.failure_message
                assert DIVERGED.search(report.failure_message), report.failure_message


class TestCLI:
    def _write_config(self, tmp_path, cfg=None):
        path = tmp_path / "config.ini"
        write_config(path, cfg or tiny_config())
        return path

    def test_stagewise_pipeline(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["model"]["modes"] = ("additive", "multiplicative")
        config = self._write_config(tmp_path, cfg)
        run = tmp_path / "run"
        base = ["--config", str(config), "--run-dir", str(run)]
        assert cli_main(base + ["generate"]) == 0
        assert cli_main(base + ["train", "--mode", "additive"]) == 0
        assert cli_main(base + ["train", "--mode", "multiplicative"]) == 0
        assert cli_main(base + ["train-lms"]) == 0
        for mode in cfg["model"]["modes"]:
            for split in ("dev", "test"):
                assert cli_main(base + ["decode", "--mode", mode, "--split", split]) == 0
        assert (
            cli_main(base + ["score", "--nbest", str(run / "nbest_additive_test.tsv"),
                             "--split", "test"])
            == 0
        )
        assert cli_main(base + ["rescore", "--condition", "shallow"]) == 0
        # report.json is run's alone; verify and report read it.
        assert cli_main(base + ["run"]) == 0
        assert cli_main(base + ["verify"]) == 0
        assert cli_main(base + ["report"]) == 0
        out = capsys.readouterr().out
        assert "WER" in out

    def test_stagewise_equals_run(self, tmp_path):
        # One CLI command per stage writes every file byte for byte as `run`
        # does; report.json and report.txt are `run`'s alone.
        cfg = tiny_config()
        config = self._write_config(tmp_path, cfg)
        assert cli_main(["--config", str(config), "--run-dir", str(tmp_path / "run"), "run"]) == 0
        stagewise = tmp_path / "stagewise"
        base = ["--config", str(config), "--run-dir", str(stagewise)]
        commands = [["generate"], *(["train", "--mode", m] for m in cfg["model"]["modes"]),
                    ["train-lms"],
                    *(["decode", "--mode", m, "--split", s]
                      for m in cfg["model"]["modes"] for s in ("dev", "test")),
                    *(["rescore", "--condition", c] for c in CONDITIONS)]
        for command in commands:
            assert cli_main(base + command) == 0, command
        written = sorted(p.name for p in stagewise.iterdir())
        assert len(written) == 27 and not any(name.startswith("report.") for name in written)
        for name in written:
            digest = hashlib.sha256((stagewise / name).read_bytes()).hexdigest()
            assert digest == hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest(), name

    def test_every_written_path_has_one_stage(self, tmp_path, monkeypatch):
        cfg = tiny_config(experiment={"sweep": True, "sweep_epochs": 1, "ablations": (ABLATION,)})
        written = []
        for name in ("data", "experiment", "fusion", "model"):
            module = importlib.import_module(f"transducer_workbench.{name}")
            original = module.atomic_write

            def recording(path, *args, original=original, **kwargs):
                written.append(Path(path).name)
                return original(path, *args, **kwargs)

            monkeypatch.setattr(module, "atomic_write", recording)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None and report.sweep and report.ablations
        declared = collections.Counter(
            name for stage in experiment.STAGES.values() for name in set(stage.writes(cfg))
        )
        assert len(written) == len(set(written)) == 42
        assert {name: declared[name] for name in written} == {name: 1 for name in written}

    @pytest.mark.parametrize("which", ["source", "external"])
    def test_decode_refuses_a_run_dir_without_lms(self, tmp_path, capsys, which):
        run = tmp_path / "run"
        base = ["--config", str(self._write_config(tmp_path)), "--run-dir", str(run)]
        for command in (["generate"], ["train", "--mode", "additive"], ["train-lms"]):
            assert cli_main(base + command) == 0
        (run / f"lm_{which}.npz").unlink()
        capsys.readouterr()
        assert cli_main(base + ["decode", "--mode", "additive"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"lm_{which}.npz" in err
        assert not list(run.glob("nbest_*"))

    def test_decode_only_run_reuses_checkpoint(self, tmp_path):
        cfg = tiny_config()
        cfg["model"]["modes"] = ("additive", "multiplicative")
        run = tmp_path / "run"
        report1 = run_experiment(cfg, run)
        assert report1.failure_stage is None
        ckpt = np.load(run / "model_additive.npz")
        saved = {k: ckpt[k].copy() for k in ckpt.files if k != "__meta__"}
        cfg["training"]["epochs"] = 0
        report2 = run_experiment(cfg, run)
        assert report2.failure_stage is None
        after = np.load(run / "model_additive.npz")
        for k, v in saved.items():
            np.testing.assert_array_equal(v, after[k])

    def test_missing_transcript_is_an_error_line(self, tmp_path, capsys):
        run = tmp_path / "run"
        base = ["--config", str(self._write_config(tmp_path)), "--run-dir", str(run)]
        assert cli_main(base + ["generate"]) == 0
        transcripts = run / "transcripts_dev.tsv"
        lines = transcripts.read_text(encoding="utf-8").splitlines(keepends=True)
        transcripts.write_text("".join(lines[1:]), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(base + ["train", "--mode", "additive"]) == 1
        assert capsys.readouterr().err.startswith("error: no transcript for utterance dev-0000")

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[task]\nbogus = 1\n")
        assert cli_main(["--config", str(bad), "--run-dir", str(tmp_path / "r"), "run"]) == 1

    @pytest.mark.parametrize("section, key, value", [
        ("decoding", "merge", "maxx"),
        ("model", "modes", ()),
    ])
    def test_setting_a_later_stage_refuses_exits_before_training(self, tmp_path, capsys,
                                                                  section, key, value):
        cfg = tiny_config(experiment={"conditions": ("no_lm",), "ablations": ("no_switchout",)},
                          **{section: {key: value}})
        run = tmp_path / "run"
        base = ["--config", str(self._write_config(tmp_path, cfg)), "--run-dir", str(run)]
        assert cli_main(base + ["run"]) == 1
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key}")
        assert not list(run.glob("model_*.npz"))

    @pytest.mark.parametrize("section, key, settings", [
        ("training", "batch_size", {"training": {"batch_size": 0}}),
        ("lm", "batch_size", {"lm": {"batch_size": 0}}),
        ("task", "length_min", {"task": {"length_min": 0}}),
        ("task", "length_max", {"task": {"length_min": 5, "length_max": 3}}),
        *((section, key, {section: {key: 0}}) for section, key in ZERO_CRASHED),
        ("task", "frames_per_symbol_max",
         {"task": {"frames_per_symbol_min": 5, "frames_per_symbol_max": 4}}),
        *(("fusion", key, {"fusion": {key: ()}}) for key in ("mu_grid", "lam_grid", "rho_grid")),
        *(row[1:] for row in OUT_OF_DOMAIN),
    ], ids=["training-batch_size", "lm-batch_size", "length_min", "length_min-above-max",
            *(f"{section}-{key}" for section, key in ZERO_CRASHED),
            "frames_per_symbol_min-above-max", "empty-mu_grid", "empty-lam_grid", "empty-rho_grid",
            *(row[0] for row in OUT_OF_DOMAIN)])
    def test_setting_that_crashed_a_stage_exits_before_writing(self, tmp_path, capsys,
                                                               section, key, settings):
        run = tmp_path / "run"
        config = self._write_config(tmp_path, tiny_config(**settings))
        assert cli_main(["--config", str(config), "--run-dir", str(run), "run"]) == 1
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key}")
        assert not run.exists() or list(run.iterdir()) == []

    @pytest.mark.parametrize("section, key, value", [
        ("model", "modes", ("additive", "additive")),
        ("experiment", "conditions", ("no_lm", "shallow", "no_lm")),
        ("experiment", "ablations", ("no_switchout", "no_switchout")),
    ], ids=["modes", "conditions", "ablations"])
    def test_repeated_list_entry_exits_before_writing(self, tmp_path, capsys, section, key, value):
        # A repeated mode passed the two-mode rule of combination and then
        # crashed in stage_combination; a repeated condition or ablation
        # ran twice under one report key.
        run = tmp_path / "run"
        config = self._write_config(tmp_path, tiny_config(**{section: {key: value}}))
        assert cli_main(["--config", str(config), "--run-dir", str(run), "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{section}] {key}: {value[0]!r} is named more than once")
        assert not run.exists() or list(run.iterdir()) == []

    def test_decode_refuses_a_zero_start_checkpoint(self, tmp_path, capsys):
        # The checkpoint layout from before the prediction network had a
        # begin row: its LSTM under `prediction.lstm.*`, one embedding row
        # per label.
        cfg = tiny_config()
        run = tmp_path / "run"
        base = ["--config", str(self._write_config(tmp_path, cfg)), "--run-dir", str(run)]
        assert cli_main(base + ["generate"]) == 0
        model = init_model(build_model_config(cfg, "additive"), RandomStream(0))
        arrays = {name.replace("prediction.layers.0.", "prediction.lstm."): arr
                  for name, arr in model.arrays().items()}
        arrays["prediction.embedding"] = arrays["prediction.embedding"][:-1]
        _write_container(run / "model_additive.npz", arrays, {"config": model.config.to_dict()})
        capsys.readouterr()
        assert cli_main(base + ["decode", "--mode", "additive"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "prediction.lstm.W_h" in err
        assert not (run / "nbest_additive_test.tsv").exists()

    def test_decode_refuses_a_mis_shaped_checkpoint(self, tmp_path, capsys):
        # Every tensor name is right; the begin row of the embedding is gone.
        cfg = tiny_config()
        run = tmp_path / "run"
        base = ["--config", str(self._write_config(tmp_path, cfg)), "--run-dir", str(run)]
        assert cli_main(base + ["generate"]) == 0
        model = init_model(build_model_config(cfg, "additive"), RandomStream(0))
        arrays = model.arrays()
        arrays["prediction.embedding"] = arrays["prediction.embedding"][:-1]
        _write_container(run / "model_additive.npz", arrays, {"config": model.config.to_dict()})
        capsys.readouterr()
        assert cli_main(base + ["decode", "--mode", "additive"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "prediction.embedding has shape (5, 6)" in err
        assert not (run / "nbest_additive_test.tsv").exists()

    def test_rescore_combination_needs_two_modes(self, tmp_path, capsys):
        cfg = tiny_config(experiment={"conditions": ("no_lm",)})
        cfg["model"]["modes"] = ("additive",)
        run = tmp_path / "run"
        base = ["--config", str(self._write_config(tmp_path, cfg)), "--run-dir", str(run)]
        assert cli_main(base + ["rescore", "--condition", "combination"]) == 1
        assert capsys.readouterr().err == ("error: [experiment] conditions: combination needs two "
                                           "modes, got ('additive',)\n")
        assert not run.exists()

    def test_default_config_prints(self, tmp_path, capsys):
        assert cli_main(["default-config"]) == 0
        out = capsys.readouterr().out
        assert "[task]" in out and "num_labels" in out
        write_config(tmp_path / "config.ini", default_config())
        assert out == (tmp_path / "config.ini").read_text(encoding="utf-8")
        assert out == format_config(default_config())

    @pytest.mark.parametrize("command", [["default-config"], ["verify"]])
    def test_read_only_commands_make_no_run_dir(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        cli_main(command)
        cli_main(["--run-dir", str(tmp_path / "elsewhere")] + command)
        assert list(tmp_path.iterdir()) == []

    def test_seed_override(self, tmp_path):
        config = self._write_config(tmp_path)
        run = tmp_path / "run"
        assert cli_main(["--config", str(config), "--run-dir", str(run),
                         "--seed", "7", "generate"]) == 0
        # generate writes config.ini, as run does, with the override in it.
        assert parse_config(run / "config.ini")["experiment"]["seed"] == 7


ABLATION = "no_sequence_noise"


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    """A finished tiny run: both modes, every condition, one ablation.
    Tests that change it work on a copy (`run_copy`)."""
    run_dir = tmp_path_factory.mktemp("ablation") / "run"
    report = run_experiment(tiny_config(experiment={"ablations": (ABLATION,)}), run_dir)
    assert report.failure_stage is None
    return run_dir


@pytest.fixture
def run_copy(ablation_run, tmp_path):
    return Path(shutil.copytree(ablation_run, tmp_path / "run"))


def count_reads(monkeypatch):
    """Counts `read_nbest` calls by file name, under the module-level name
    that the experiment stages call."""
    counts = collections.Counter()
    original = experiment.read_nbest

    def counting(path, alphabet):
        counts[Path(path).name] += 1
        return original(path, alphabet)

    monkeypatch.setattr(experiment, "read_nbest", counting)
    return counts


def nbest_names(*stems):
    return {f"{stem}_{split}.tsv": 1 for stem in stems for split in ("dev", "test")}


class TestVerify:
    def test_ablation_run_verifies_clean(self, ablation_run):
        report = load_report(ablation_run)
        assert set(report["ablations"]) == {ABLATION}
        assert verify_report(ablation_run) == []

    def test_dev_wer_is_top1_wer_exactly(self, ablation_run):
        report = load_report(ablation_run)
        assert list(report["conditions"]) == list(CONDITIONS)
        for entry in report["conditions"]["no_lm"].values():
            assert weights_from_dict(entry["weights"]) == FusionWeights()
        config = parse_config(ablation_run / "config.ini")
        alphabet, _ = load_run_data(config, ablation_run)
        refs = read_transcripts(ablation_run / "transcripts_dev.tsv", alphabet)
        for condition, entries in report["conditions"].items():
            for name, entry in entries.items():
                stem = "combination" if condition == "combination" else f"nbest_{name}"
                dev = cached_nbests(read_nbest(ablation_run / f"{stem}_dev.tsv", alphabet),
                                    alphabet, refs)
                assert entry["dev_wer"] == top1_wer(dev, weights_from_dict(entry["weights"]))

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_cli_rescore_reads_no_lm(self, run_copy, capsys, condition):
        for name in ("lm_source.npz", "lm_external.npz"):
            (run_copy / name).unlink()
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        assert cli_main(base + ["rescore", "--condition", condition]) == 0
        assert capsys.readouterr().out.startswith(f"{condition} [")
        assert verify_report(run_copy) == []

    def test_each_file_read_once_per_stage(self, run_copy, monkeypatch):
        config = parse_config(run_copy / "config.ini")
        alphabet, datasets = load_run_data(config, run_copy)
        models = {
            mode: load_checkpoint(run_copy / f"model_{mode}.npz")[0]
            for mode in config["model"]["modes"]
        }
        report = ExperimentReport(config_fingerprint(config), 0, list(models))
        counts = count_reads(monkeypatch)
        stage_fusion_conditions(config, run_copy, models, datasets, alphabet, None, None, report)
        assert counts == nbest_names("nbest_additive", "nbest_multiplicative")
        assert report.conditions == load_report(run_copy)["conditions"]

        counts.clear()
        assert verify_report(run_copy) == []
        assert counts == {
            **nbest_names("nbest_additive", "nbest_multiplicative", "combination"),
            f"nbest_ablation_{ABLATION}_test.tsv": 1,
        }

    @pytest.mark.parametrize("section", ["conditions", "ablations"])
    def test_tampered_report_wer_caught(self, run_copy, section):
        report = load_report(run_copy)
        if section == "conditions":
            entry = report["conditions"]["density_ratio"]["additive"]
            key, label = "test_wer", "density_ratio/additive/test"
        else:
            entry = report["ablations"][ABLATION]
            key, label = "density_ratio_test_wer", f"ablations/{ABLATION}/density_ratio_test"
        entry[key] += 0.01
        (run_copy / "report.json").write_text(json.dumps(report, indent=2))
        problems = verify_report(run_copy)
        assert [p.split(":")[0] for p in problems] == [label]

    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.5", None, True],
                             ids=["nan", "inf", "string", "null", "bool"])
    def test_non_finite_or_non_numeric_wer_caught(self, run_copy, capsys, value):
        # NaN compares false with everything, so a tolerance test alone
        # would pass it; a string would raise TypeError inside `verify`.
        report = load_report(run_copy)
        report["conditions"]["no_lm"]["additive"]["test_wer"] = value
        report["ablations"][ABLATION]["no_lm_test_wer"] = value
        (run_copy / "report.json").write_text(json.dumps(report, indent=2))
        problems = verify_report(run_copy)
        assert [p.split(":")[0] for p in problems] == [
            "no_lm/additive/test", f"ablations/{ABLATION}/no_lm_test"
        ]
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        assert cli_main(base + ["verify"]) == 2
        assert capsys.readouterr().out.startswith("MISMATCH no_lm/additive/test: ")

    def test_tampered_combination_float_caught(self, run_copy):
        # Raise transducer_a on the first row of combination_test.tsv whose
        # promotion to top-1 moves the test WER; one float changes.
        config = parse_config(run_copy / "config.ini")
        alphabet, _ = load_run_data(config, run_copy)
        refs = read_transcripts(run_copy / "transcripts_test.tsv", alphabet)
        [entry] = load_report(run_copy)["conditions"]["combination"].values()
        weights = weights_from_dict(entry["weights"])
        path = run_copy / "combination_test.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines):
            cols = line.split("\t")
            cols[3] = "1000"
            path.write_text("".join(lines[:i] + ["\t".join(cols)] + lines[i + 1:]))
            rows = read_nbest(path, alphabet)
            if top1_wer(cached_nbests(rows, alphabet, refs), weights) != entry["test_wer"]:
                break
        else:
            pytest.fail("no row of combination_test.tsv moves the test WER")
        problems = verify_report(run_copy)
        assert [p.split(":")[0] for p in problems] == ["combination/additive+multiplicative/test"]

    def test_cli_score_combination_file(self, ablation_run, capsys):
        [entry] = load_report(ablation_run)["conditions"]["combination"].values()
        base = ["--config", str(ablation_run / "config.ini"), "--run-dir", str(ablation_run)]
        assert cli_main(base + [
            "score", "--nbest", str(ablation_run / "combination_test.tsv"),
            "--weights", str(ablation_run / "weights_combination.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"test WER {100 * entry['test_wer']:.2f}% ")

    def test_cli_score_reproduces_the_ablation_wer(self, ablation_run, capsys):
        entry = load_report(ablation_run)["ablations"][ABLATION]
        weights = ablation_run / f"weights_ablation_{ABLATION}.json"
        assert json.loads(weights.read_text()) == entry["weights"]
        base = ["--config", str(ablation_run / "config.ini"), "--run-dir", str(ablation_run)]
        assert cli_main(base + [
            "score", "--nbest", str(ablation_run / f"nbest_ablation_{ABLATION}_test.tsv"),
            "--weights", str(weights),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"test WER {100 * entry['density_ratio_test_wer']:.2f}% ")

    def test_report_of_another_config_refused(self, run_copy):
        config = parse_config(run_copy / "config.ini")
        write_config(run_copy / "config.ini", with_settings(config, "training", epochs=3))
        problems = verify_report(run_copy)
        assert [p.split(":")[0] for p in problems] == ["config_fingerprint"]

    def test_interrupted_rerun_leaves_no_report(self, run_copy, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "stage_train_mode", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(parse_config(run_copy / "config.ini"), run_copy)
        assert not list(run_copy.glob("report.*"))
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        assert cli_main(base + ["verify"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_cli_score_refuses_a_byte_outside_utf8(self, ablation_run, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"u\t\xff\t1\t-1\t-2\t-3\n")
        base = ["--config", str(ablation_run / "config.ini"), "--run-dir", str(ablation_run)]
        assert cli_main(base + ["score", "--nbest", str(bad)]) == 1
        assert capsys.readouterr().err == "error: n-best line 1: byte 0xff is not UTF-8\n"

    def test_cli_score_refuses_a_negative_infinite_lm_score(self, ablation_run, tmp_path, capsys):
        # The reference words, then a row whose source-LM score is -inf,
        # which the weights' mu > 0 would otherwise turn into the top-1.
        alphabet, _ = load_run_data(parse_config(ablation_run / "config.ini"), ablation_run)
        refs = read_transcripts(ablation_run / "transcripts_test.tsv", alphabet)
        utt_id, labels = min(refs.items())
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"{utt_id}\t{alphabet.to_text(labels)}\t9\t-1\t-1\t-1\n"
                       f"{utt_id}\t{alphabet.to_text(labels[:1])}\t9\t-50\t-inf\t-1\n")
        (tmp_path / "w.json").write_text('{"mu": 0.3, "lam": 0.0, "rho": 0.0}')
        base = ["--config", str(ablation_run / "config.ini"), "--run-dir", str(ablation_run)]
        assert cli_main(base + ["score", "--nbest", str(bad),
                                "--weights", str(tmp_path / "w.json")]) == 1
        assert capsys.readouterr().err == (
            "error: n-best line 2: LM score -inf, expected a finite one\n"
        )

    def test_cli_report_rebuilds_same_text(self, run_copy, capsys):
        before = (run_copy / "report.txt").read_bytes()
        (run_copy / "report.txt").unlink()
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        assert cli_main(base + ["report"]) == 0
        assert (run_copy / "report.txt").read_bytes() == before
        assert capsys.readouterr().out.encode() == before


    @pytest.mark.parametrize("edit, field", [
        (lambda report: report.pop("modes"), "modes"),
        (lambda report: report.update(bogus=1), "bogus"),
    ], ids=["missing", "unknown"])
    def test_cli_report_malformed_json(self, run_copy, capsys, edit, field):
        report = load_report(run_copy)
        edit(report)
        (run_copy / "report.json").write_text(json.dumps(report, indent=2))
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        assert cli_main(base + ["report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report") and field in err

    @pytest.mark.parametrize("command", ["report", "verify"])
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"seed": 1}'],
                             ids=["not-json", "not-object", "missing-fields"])
    def test_cli_unreadable_report(self, run_copy, capsys, command, text):
        (run_copy / "report.json").write_text(text)
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        assert cli_main(base + [command]) == 1
        assert capsys.readouterr().err.startswith("error: malformed report: ")


def failing_json_dump(obj, fp, **kwargs):
    """A json.dump that dies partway through its output."""
    fp.write(json.dumps(obj, **kwargs)[:10])
    raise RuntimeError("killed mid-write")


class TestCrashSafeArtifacts:
    """A write that fails partway leaves the previous artifact byte-identical
    and no temporary file behind."""

    @staticmethod
    def snapshot(run_dir):
        return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()}

    def test_report(self, run_copy, monkeypatch):
        before = self.snapshot(run_copy)
        report = ExperimentReport.from_dict(load_report(run_copy))
        report.seed += 1
        monkeypatch.setattr(json, "dump", failing_json_dump)
        with pytest.raises(RuntimeError, match="killed mid-write"):
            experiment._write_report(run_copy, report)
        assert self.snapshot(run_copy) == before

    def test_report_text(self, run_copy, monkeypatch):
        before = self.snapshot(run_copy)
        # A lone surrogate cannot be encoded, so the write itself fails.
        monkeypatch.setattr("transducer_workbench.cli.render_report",
                            lambda report: "WER\n\ud800")
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        with pytest.raises(UnicodeEncodeError):
            cli_main(base + ["report"])
        assert self.snapshot(run_copy) == before

    def test_config(self, run_copy):
        before = self.snapshot(run_copy)
        config = parse_config(run_copy / "config.ini")
        # A lone surrogate cannot be encoded, so the write itself fails.
        config["model"]["encoder_init"] = "\ud800"
        with pytest.raises(UnicodeEncodeError):
            write_config(run_copy / "config.ini", config)
        assert self.snapshot(run_copy) == before

    @pytest.mark.parametrize("name", ["transcripts_dev.tsv", "external_text.tsv"])
    def test_transcripts(self, run_copy, name):
        before = self.snapshot(run_copy)
        config = parse_config(run_copy / "config.ini")
        alphabet, _ = load_run_data(config, run_copy)
        transcripts = read_transcripts(run_copy / name, alphabet)
        written = []

        class DyingAlphabet:
            def to_text(self, labels):
                if written:
                    raise RuntimeError("killed mid-write")
                written.append(labels)
                return alphabet.to_text(labels)

        with pytest.raises(RuntimeError, match="killed mid-write"):
            write_transcripts(run_copy / name, transcripts, DyingAlphabet())
        assert written and self.snapshot(run_copy) == before

    def test_features(self, run_copy):
        before = self.snapshot(run_copy)
        dataset = read_features(run_copy / "features_dev.bin")
        dataset.utterances[-1].frames[0, 0] = np.nan
        # The header and the first utterances are written before the check fails.
        with pytest.raises(IngestError, match="non-finite"):
            write_features(run_copy / "features_dev.bin", dataset)
        assert self.snapshot(run_copy) == before

    @pytest.mark.parametrize("name", ["model_additive.npz", "lm_source.npz"])
    def test_checkpoint(self, run_copy, monkeypatch, name):
        before = self.snapshot(run_copy)
        savez = np.savez

        def dying_savez(file, **arrays):
            # Write the real container's first half, then die.
            buffer = io.BytesIO()
            savez(buffer, **arrays)
            file.write(buffer.getvalue()[: len(buffer.getvalue()) // 2])
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(RuntimeError, match="killed mid-write"):
            if name.startswith("model"):
                model, meta = load_checkpoint(run_copy / name)
                save_checkpoint(run_copy / name, model, meta)
            else:
                lm, meta = load_char_lm(run_copy / name)
                config = CharLMConfig(**meta["lm_config"])
                save_char_lm(run_copy / name, lm, config, meta)
        assert self.snapshot(run_copy) == before

    @pytest.mark.parametrize("condition", ["shallow", "combination"])
    def test_weights(self, run_copy, monkeypatch, condition):
        before = self.snapshot(run_copy)
        monkeypatch.setattr(json, "dump", failing_json_dump)
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        with pytest.raises(RuntimeError, match="killed mid-write"):
            cli_main(base + ["rescore", "--condition", condition])
        # combination_*.tsv is rewritten whole before the weights fail.
        assert self.snapshot(run_copy) == before


class TestLogLevel:
    @pytest.fixture(autouse=True)
    def restore_level(self):
        yield
        logging.getLogger("transducer_workbench").setLevel(logging.NOTSET)

    @pytest.mark.parametrize("flag, shown", [([], True), (["--log-level", "ERROR"], False)],
                             ids=["default", "error"])
    def test_length_cap_warning(self, run_copy, caplog, flag, shown):
        # A row from outside the program, longer than any ALSD emits.
        alphabet, _ = load_run_data(parse_config(run_copy / "config.ini"), run_copy)
        path = run_copy / "nbest_additive_dev.tsv"
        utt_id = path.read_text(encoding="utf-8").split("\t", 1)[0]
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"{utt_id}\t{alphabet.to_text((0,) * 500)}\t500\t-1\t-2\t-3\n")
        base = ["--config", str(run_copy / "config.ini"), "--run-dir", str(run_copy)]
        with caplog.at_level(logging.WARNING):
            assert cli_main(flag + base + ["rescore", "--condition", "combination"]) == 0
        dropped = [r.getMessage() for r in caplog.records if "dropping hypothesis" in r.getMessage()]
        assert len(dropped) == shown
        assert all("dropping hypothesis of length 500 " in message for message in dropped)


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """A finished tiny run with the optimizer x schedule sweep on."""
    run_dir = tmp_path_factory.mktemp("sweep") / "run"
    cfg = tiny_config(experiment={"sweep": True, "sweep_epochs": 1, "conditions": ("no_lm",)})
    cfg["model"]["modes"] = ("additive",)
    report = run_experiment(cfg, run_dir)
    assert report.failure_stage is None and len(report.sweep) == 4
    return run_dir


class TestVerifySweep:
    def test_sweep_run_verifies_clean(self, sweep_run):
        assert verify_report(sweep_run) == []

    @pytest.mark.parametrize("split", ["dev", "test"])
    def test_tampered_sweep_wer_caught(self, sweep_run, tmp_path, split):
        run = Path(shutil.copytree(sweep_run, tmp_path / "run"))
        report = load_report(run)
        row = report["sweep"][0]
        row[f"{split}_wer"] += 0.01
        (run / "report.json").write_text(json.dumps(report, indent=2))
        problems = verify_report(run)
        label = f"sweep/{row['optimizer']}/{row['schedule']}/{split}"
        assert [p.split(":")[0] for p in problems] == [label]


    def test_diverged_cell_is_a_row_of_the_grid(self, sweep_run, tmp_path, monkeypatch):
        # One cell diverges: the run goes on, the cell's row holds the
        # message and no WER, verify reads no checkpoint for it, and every
        # other row is the one of the run where no cell diverged.
        real = experiment.train
        message = "epoch 0, step 0, utterances ['train-0000']: overflow encountered in multiply"

        def diverging(model, train_set, recipe, *args, **kwargs):
            if (recipe.optimizer.kind, recipe.schedule.kind) == ("momentum_sgd", "const_decay"):
                raise TrainingDiverged(message)
            return real(model, train_set, recipe, *args, **kwargs)

        monkeypatch.setattr(experiment, "train", diverging)
        cfg = parse_config(sweep_run / "config.ini")
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None
        expected = load_report(sweep_run)["sweep"]
        rows = json.loads(json.dumps(report.sweep))
        assert rows[0] == {"optimizer": "momentum_sgd", "schedule": "const_decay",
                           "dev_wer": None, "test_wer": None, "diverged": message}
        assert rows[1:] == expected[1:]
        assert not (tmp_path / "run" / "model_sweep_momentum_sgd_const_decay.npz").exists()
        assert verify_report(tmp_path / "run") == []
        text = (tmp_path / "run" / "report.txt").read_text(encoding="utf-8")
        assert f"momentum_sgd   const_decay  diverged: {message}\n" in text
        tampered = load_report(tmp_path / "run")
        tampered["sweep"][0]["test_wer"] = 0.5
        (tmp_path / "run" / "report.json").write_text(json.dumps(tampered, indent=2))
        assert verify_report(tmp_path / "run") == [
            "sweep/momentum_sgd/const_decay/test: reported 0.5, recomputed nan"]

    def test_missing_transcript_is_an_error_line(self, sweep_run, tmp_path, capsys):
        run = Path(shutil.copytree(sweep_run, tmp_path / "run"))
        transcripts = run / "transcripts_test.tsv"
        lines = transcripts.read_text(encoding="utf-8").splitlines(keepends=True)
        transcripts.write_text("".join(lines[1:]), encoding="utf-8")
        base = ["--config", str(run / "config.ini"), "--run-dir", str(run)]
        assert cli_main(base + ["verify"]) == 1
        assert capsys.readouterr().err.startswith("error: no transcript for utterance test-0000")


class TestWeightsFromDict:
    def test_kinds(self):
        assert weights_from_dict({"mu": 0.1, "lam": 0.2, "rho": 0.3}) == FusionWeights(0.1, 0.2, 0.3)
        assert weights_from_dict(
            {"alpha": 0.5, "beta": 0.4, "mu": 0.1, "lam": 0.2, "rho": 0.3}
        ) == CombinationWeights(0.5, 0.4, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize(
        "d", [{"mu": 0.1, "lam": 0.2}, {"alpha": 0.5, "mu": 0.1, "lam": 0.2, "rho": 0.3}]
    )
    def test_missing_key_rejected(self, d):
        with pytest.raises(ContractViolation, match="lack"):
            weights_from_dict(d)
