import collections
import io
import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from transducer_workbench import experiment
from transducer_workbench.cli import main as cli_main
from transducer_workbench.data import (
    Alphabet,
    read_features,
    read_transcripts,
    write_features,
    write_transcripts,
)
from transducer_workbench.errors import ConfigError, ContractViolation, IngestError
from transducer_workbench.experiment import (
    ExperimentReport,
    CONDITIONS,
    build_recipe,
    condition_grid,
    config_fingerprint,
    default_config,
    format_config,
    load_report,
    load_run_data,
    parse_config,
    run_experiment,
    stage_fusion_conditions,
    verify_report,
    weights_from_dict,
    write_config,
)
from transducer_workbench.fusion import (
    CombinationWeights,
    FusionWeights,
    cached_nbests,
    read_nbest,
    top1_wer,
)
from transducer_workbench.model import load_char_lm, load_checkpoint, save_char_lm, save_checkpoint
from transducer_workbench.networks import CharLMConfig, lm_score


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


class TestRecipeBuilder:
    def test_ablation_toggles(self):
        cfg = tiny_config()
        cfg["training"]["speed_tempo_replicas"] = True
        base = build_recipe(cfg)
        assert base.switchout is not None
        assert base.sequence_noise is not None
        assert base.specaugment is not None
        assert base.dropconnect_rate > 0
        assert base.replicas
        assert build_recipe(cfg, "no_switchout").switchout is None
        assert build_recipe(cfg, "no_sequence_noise").sequence_noise is None
        assert build_recipe(cfg, "no_specaugment").specaugment is None
        assert build_recipe(cfg, "no_dropconnect").dropconnect_rate == 0.0
        assert build_recipe(cfg, "no_speed_tempo").replicas == ()


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
                    assert float(src) == lm_score(labels, source_lm)[0]
                    assert float(ext) == lm_score(labels, external_lm)[0]
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

    def test_sweep_rows(self, tmp_path):
        cfg = tiny_config(experiment={"sweep": True, "sweep_epochs": 1,
                                      "conditions": ("no_lm",)})
        cfg["model"]["modes"] = ("additive",)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None
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

    def test_ablation_rows(self, tmp_path):
        cfg = tiny_config(
            experiment={"ablations": ("no_sequence_noise",), "conditions": ("no_lm",)}
        )
        cfg["model"]["modes"] = ("additive",)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None
        assert "no_sequence_noise" in report.ablations
        entry = report.ablations["no_sequence_noise"]
        assert "no_lm_test_wer" in entry and "density_ratio_test_wer" in entry

    def test_delta_features(self, tmp_path):
        cfg = tiny_config(task={"delta_features": True},
                          experiment={"conditions": ("no_lm",)})
        cfg["model"]["modes"] = ("additive",)
        report = run_experiment(cfg, tmp_path / "run")
        assert report.failure_stage is None


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
        # decode before LMs exist: components stay zero
        assert cli_main(base + ["decode", "--mode", "additive", "--split", "dev"]) == 0
        # full run fills in LMs and the report; then verify and score
        assert cli_main(base + ["run"]) == 0
        assert cli_main(base + ["verify"]) == 0
        assert (
            cli_main(base + ["score", "--nbest", str(run / "nbest_additive_test.tsv"),
                             "--split", "test"])
            == 0
        )
        assert cli_main(base + ["rescore", "--condition", "shallow"]) == 0
        assert cli_main(base + ["report"]) == 0
        out = capsys.readouterr().out
        assert "WER" in out

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
        saved = parse_config(run / "config.ini") if (run / "config.ini").exists() else None
        # generate does not write config.ini; the seed override is live only.
        assert saved is None or saved["experiment"]["seed"] == 7


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

    def test_cli_score_refuses_a_byte_outside_utf8(self, ablation_run, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"u\t\xff\t1\t-1\t-2\t-3\n")
        base = ["--config", str(ablation_run / "config.ini"), "--run-dir", str(ablation_run)]
        assert cli_main(base + ["score", "--nbest", str(bad)]) == 1
        assert capsys.readouterr().err == "error: n-best line 1: byte 0xff is not UTF-8\n"

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
