"""The benchmark's tracer (`benchmark/tracing.py`) must still see every layer,
and the benchmark's modules must still import.

The tracer wraps module attributes under the names the program's callers
use, and records a target it cannot find instead of failing. A rename in
`src/` would therefore silently blind the per-layer metrics; these tests
turn such a rename into a failure of the fast test suite. Likewise, a
deleted name that `benchmark/checks.py` or `benchmark/workloads.py`
imports would crash every benchmark run at start-up.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from transducer_workbench import experiment, fusion, lattice, model, networks, scoring, training
from transducer_workbench.data import generate_synthetic_task
from transducer_workbench.model import TransducerModel
from transducer_workbench.networks import CharLMConfig, init_char_lm_params
from transducer_workbench.numerics import RandomStream

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
PATCHED_MODULES = (experiment, fusion, model, networks, scoring, training)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["checks", "workloads"])
def test_benchmark_module_imports(name, monkeypatch):
    # The workloads import `checks` and `tracing` as top-level modules from
    # the benchmark directory, as `benchmark/run.py` does.
    bench = TRACING.parent
    monkeypatch.syspath_prepend(str(bench))
    fresh = [key for key in ("checks", "tracing") if key not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location(f"benchmark_{name}", bench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        for key in fresh:
            sys.modules.pop(key, None)


def _attributes():
    return {(m.__name__, name): value for m in PATCHED_MODULES for name, value in vars(m).items()}


def test_every_wrap_target_exists(tracing):
    tracer = tracing.install(tracing.Tracer())
    try:
        assert tracer.missing == []
    finally:
        tracer.close()


def test_close_restores_every_patched_attribute(tracing):
    before = _attributes()
    tracer = tracing.install(tracing.Tracer())
    try:
        during = _attributes()
    finally:
        tracer.close()
    patched = {key for key, value in during.items() if value is not before.get(key)}
    assert ("transducer_workbench.fusion", "lm_score") in patched
    assert ("transducer_workbench.model", "joint_forward_lattice") in patched
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_decoder_proxy_methods_exist(tracing):
    proxied = [
        name for name, value in vars(tracing.TracedDecoderModel).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]
    assert proxied
    for name in proxied:
        assert callable(getattr(TransducerModel, name, None)), name


@pytest.mark.parametrize("function, parameters", [
    (fusion.combine_rescore, ("nbest_a", "nbest_b")),
    (fusion.tune_weights, ("mu_grid", "lam_grid", "rho_grid", "alpha_beta_grid")),
    (lattice.rnnt_forward, ("lattice",)),
    (scoring.compute_wer, ("reference", "hypothesis")),
    (training.batch_loss_and_grads, ("items",)),
], ids=lambda x: getattr(x, "__name__", None))
def test_traced_notes_read_existing_parameters(function, parameters):
    # The tracer's span notes read these arguments by name.
    assert set(parameters) <= set(inspect.signature(function).parameters)


def test_lm_training_spans_only_its_per_sequence_loss(tracing):
    # The LMs share the transducer's minibatch loop, but not its spans:
    # `networks.lm_loss_ms_per_seq` reads one span per sequence and epoch,
    # and `augment.ms_per_utt` and the `training.*_per_step` metrics read
    # spans of transducer training only. The loss must stay looked up on
    # `networks` at call time, where the tracer wraps it.
    lm = init_char_lm_params(3, CharLMConfig(layers=1, cells=4, embed_dim=2), RandomStream(1))
    sequences, epochs = [(0, 1), (2,), (), (1, 2, 0), (0,)], 3
    with tracing.install(tracing.Tracer()) as tracer:
        training.train_char_lm(lm, sequences, RandomStream(2), epochs=epochs, batch_size=2)
    spans = tracer.summary()
    assert spans["networks.lm_loss_and_grads"]["calls"] == len(sequences) * epochs
    assert "training.train" not in spans and "training.batch_loss_and_grads" not in spans


class _CountedRecords(list):
    """Decoder records that count how often they are iterated, like the
    benchmark's per-utterance LM latency hook, which times each loop body."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_attach_lm_components_scores_inside_one_pass(monkeypatch):
    # The decode workload's latency of an utterance includes its LM scoring
    # only if scoring happens inside the single pass over the records.
    lms = [init_char_lm_params(3, CharLMConfig(layers=1, cells=4, embed_dim=2), RandomStream(s))
           for s in (1, 2)]
    seqs = [(), (0,), (0, 1), (0, 1, 2), (2,), (0, 1)]
    records = _CountedRecords(
        (f"u{i}", [fusion.NBestRecord(seqs[j], 3 + len(seqs[j]), -1.0, 0.0, 0.0)
                   for j in (i, (i + 1) % len(seqs))])
        for i in range(len(seqs))
    )
    calls = []
    original = experiment.lm_score

    def counted(sequence, params, *args):
        calls.append((tuple(sequence), id(params)))
        return original(sequence, params, *args)

    monkeypatch.setattr(experiment, "lm_score", counted)
    rows = experiment.attach_lm_components(records, *lms)
    assert records.iterations == 1
    assert sorted(calls) == sorted({(seq, id(lm)) for seq in seqs for lm in lms})
    assert [utt_id for utt_id, _ in rows] == [utt_id for utt_id, _ in records]


def test_stage_combination_through_traced_proxies(tracing, tmp_path):
    # Traced `rescore` rounds hand `stage_combination` the tracer's decoder
    # proxies, which forward attribute access but wrap the states of
    # `init_decode_state`. Cross-scoring may ask a model only for what the
    # proxy forwards, and must write the bare models' file byte for byte.
    cfg = experiment.default_config()
    cfg["task"].update(num_labels=4, feature_dim=6, train_size=4, dev_size=5, test_size=5,
                       length_min=2, length_max=4)
    cfg["model"].update(encoder_layers=1, encoder_cells=8, prediction_cells=6, joint_dim=6,
                        embed_dim=4)
    cfg["decoding"].update(beam_width=4, n_best=4)
    task = generate_synthetic_task(experiment.build_task_config(cfg), RandomStream(1))
    datasets = {"dev": task.dev, "test": task.test}
    models = {mode: experiment.init_model(experiment.build_model_config(cfg, mode),
                                          RandomStream(10 + i))
              for i, mode in enumerate(cfg["model"]["modes"])}
    lms = [init_char_lm_params(4, CharLMConfig(layers=1, cells=4, embed_dim=2), RandomStream(s))
           for s in (20, 21)]
    experiment.stage_decode(cfg, tmp_path, models, datasets, task.alphabet, *lms)
    refs = {split: {u.utt_id: u.labels for u in ds} for split, ds in datasets.items()}
    rows = {(mode, split): fusion.read_nbest(tmp_path / experiment.artifact("nbest", mode, split),
                                             task.alphabet)
            for mode in models for split in datasets}
    combined = {}
    for name in ("bare", "traced"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        with tracing.install(tracing.Tracer()) as tracer:
            proxies = {mode: tracing.TracedDecoderModel(model, tracer)
                       for mode, model in models.items()}
            experiment.stage_combination(cfg, run_dir, models if name == "bare" else proxies,
                                         datasets, task.alphabet, refs, rows)
        combined[name] = [(run_dir / experiment.artifact("combination", split)).read_bytes()
                          for split in datasets]
    assert combined["traced"] == combined["bare"]
    assert all(combined["bare"])
    spans = tracer.summary()
    assert spans["fusion.combine_rescore"]["calls"] == len(task.dev) + len(task.test)
    assert spans["model.encode_features"]["calls"] == 2 * (len(task.dev) + len(task.test))
    assert all(proxy.states_made == 0 for proxy in proxies.values())
