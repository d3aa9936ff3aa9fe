"""Fast tests of the benchmark itself: every workload runs at a tiny size,
and every correctness check rejects a deliberately corrupted output.

    python3 -m pytest benchmark/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import RescoreWorkload, Sizes, TrainWorkload  # noqa: E402

TINY = {
    "train": Sizes(train=8, dev=2, test=1, epochs=2, min_samples=1),
    "decode": Sizes(train=16, dev=2, test=2, epochs=3, min_samples=1),
    "rescore": Sizes(train=16, dev=2, test=2, epochs=3, min_samples=1),
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["train", "decode", "rescore"])
def test_workload_smoke(name, tmp_path):
    result, info = workloads.run(name, 3, 0.0, False, tmp_path, TINY[name])
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_traced_run_reports_every_layer(tmp_path):
    result, info = workloads.run("decode", 3, 0.0, True, tmp_path, TINY["decode"])
    assert result["correct"], info["problems"]
    assert info["missing_wrap_targets"] == []
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["decoding.alsd_ms_per_utt"]["value"] > 0
    assert [m["name"] for m in _spec()["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in _spec()["per_layer"]] == list(PER_LAYER.values())


def test_missing_wrap_target_is_reported_not_raised():
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.wrap(checks, "no_such_function", "decoding.alsd_beam")
    tracer.close()
    assert tracer.missing == ["checks.no_such_function"]
    values = layer_metrics(tracer, [], 1)
    assert "decoding.alsd_ms_per_utt" not in values
    assert "networks.lm_score_calls_per_utt" not in values
    assert "networks.encode_ms_per_utt" in values


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each check fails on a corrupted output.


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    w = TrainWorkload("train", TINY["train"], 3, tmp_path_factory.mktemp("train"))
    w.setup()
    w.round()
    assert w.check() == []
    return w


def test_train_check_rejects_non_finite_parameter(trained):
    arr = trained.models["additive"].arrays()["joint.W_out"]
    saved = arr[0, 0]
    arr[0, 0] = math.nan
    try:
        assert any("not finite" in p for p in trained.check())
    finally:
        arr[0, 0] = saved


def test_train_check_rejects_rising_loss(trained):
    histories = dict(trained.histories, additive=[1.0, 2.0])
    problems = checks.check_train(trained.models, histories, trained.datasets["train"], 3)
    assert any("not below first" in p for p in problems)


def test_train_check_rejects_wrong_loss_and_gradient(trained):
    model = trained.models["multiplicative"]
    inner = model.loss_and_grads

    def off_by_a_little(*args, **kwargs):
        nll, grads = inner(*args, **kwargs)
        return nll + 1e-6, {k: 1.001 * g for k, g in grads.items()}

    model.loss_and_grads = off_by_a_little
    try:
        problems = trained.check()
    finally:
        del model.loss_and_grads
    assert any("enumeration" in p for p in problems)
    assert any("directional derivative" in p for p in problems)


@pytest.fixture(scope="module")
def rescored(tmp_path_factory):
    w = RescoreWorkload("rescore", TINY["rescore"], 3, tmp_path_factory.mktemp("rescore"))
    w.setup()
    w.round()
    assert w.check() == []
    assert checks.check_decode(w.run_dir, w.models, w.datasets, w.alphabet,
                               w.source_lm, w.external_lm) == []
    return w


def _rewrite(path, edit):
    original = path.read_text()
    lines = [line.split("\t") for line in original.splitlines()]
    edit(lines)
    path.write_text("".join("\t".join(f) + "\n" for f in lines))
    return original


@pytest.mark.parametrize("field, delta, expected", [
    (3, 1.0, "above marginal"),
    (4, 1e-6, "source LM"),
    (5, -1e-6, "external LM"),
])
def test_decode_check_rejects_corrupted_nbest(rescored, field, delta, expected):
    path = rescored.run_dir / "nbest_additive_dev.tsv"

    def bump(lines):
        lines[0][field] = repr(float(lines[0][field]) + delta)

    original = _rewrite(path, bump)
    try:
        problems = checks.check_decode(rescored.run_dir, rescored.models, rescored.datasets,
                                       rescored.alphabet, rescored.source_lm, rescored.external_lm)
    finally:
        path.write_text(original)
    assert any(expected in p for p in problems)


def test_decode_check_rejects_unsorted_nbest(rescored):
    path = rescored.run_dir / "nbest_additive_test.tsv"

    def swap(lines):
        first = lines[0][0]
        same = [i for i, f in enumerate(lines) if f[0] == first]
        assert len(same) >= 2
        lines[same[0]], lines[same[1]] = lines[same[1]], lines[same[0]]

    original = _rewrite(path, swap)
    try:
        problems = checks.check_decode(rescored.run_dir, rescored.models, rescored.datasets,
                                       rescored.alphabet, rescored.source_lm, rescored.external_lm)
    finally:
        path.write_text(original)
    assert any("not sorted" in p for p in problems)


def test_rescore_check_rejects_changed_reference_words(rescored):
    # References replaced by the no-LM top hypotheses: that entry's test
    # WER becomes 0, which the report does not say.
    assert rescored.report["conditions"]["no_lm"]["additive"]["test_wer"] > 0
    alphabet = rescored.alphabet
    nbest = checks.read_nbest_file(rescored.run_dir / "nbest_additive_test.tsv", alphabet)
    refs = rescored.references()
    refs["test"] = {
        utt_id: min(nbest[utt_id], key=lambda c: (-c[1], tuple(alphabet.words(c[0]))))[0]
        for utt_id in refs["test"]
    }
    problems = checks.check_rescore(rescored.run_dir, rescored.report, refs, alphabet,
                                    rescored.models, rescored.datasets)
    assert any(p.startswith("no_lm/additive/test: reported WER") for p in problems)


def test_rescore_check_rejects_corrupted_cross_score(rescored):
    for split in ("dev", "test"):
        path = rescored.run_dir / f"combination_{split}.tsv"

        def bump(lines):
            for f in lines:
                f[3] = repr(float(f[3]) - 1e-6)

        original = _rewrite(path, bump)
        try:
            problems = checks._check_cross_scores(rescored.run_dir, rescored.alphabet,
                                                  rescored.models, rescored.datasets)
        finally:
            path.write_text(original)
        assert any("cross-score" in p for p in problems)


def test_rescore_check_rejects_worse_than_untuned_weights(rescored):
    report = json.loads(json.dumps(rescored.report))
    entry = report["conditions"]["no_lm"]["additive"]
    entry["dev_wer"] += 1.0
    problems = checks.check_rescore(rescored.run_dir, report, rescored.references(),
                                    rescored.alphabet, rescored.models, rescored.datasets)
    assert any("zero-weight cell" in p for p in problems)
