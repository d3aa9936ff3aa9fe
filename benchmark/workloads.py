"""The three workloads: train, decode and rescore.

Each workload builds its inputs from the seed, sets up, then runs whole
rounds of its timed stage until the run length has passed and the latency
distribution has at least `min_samples` samples. The correctness checks run
on the last round's outputs, outside the timed region.

Utterance latency (`utt_ms_p50`, `utt_ms_p90`) is the wall time of each
workload's per-utterance operation:

- train: `TransducerModel.loss_and_grads` on one augmented utterance;
- decode: ALSD plus the LM components of one utterance's n-best list;
- rescore: `combine_rescore` cross-scoring one utterance's n-best union.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from transducer_workbench import experiment as ex
from transducer_workbench import training
from transducer_workbench.data import (
    Dataset,
    generate_synthetic_task,
    read_transcripts,
    sample_text_corpus,
    write_features,
    write_transcripts,
)
from transducer_workbench.errors import TrainingDiverged, WorkbenchError
from transducer_workbench.numerics import RandomStream

import checks
from tracing import PER_LAYER, TracedDecoderModel, Tracer, install, layer_metrics

perf_counter = time.perf_counter
MODES = ("additive", "multiplicative")


@dataclass(frozen=True)
class Sizes:
    train: int
    dev: int
    test: int
    epochs: int
    min_samples: int = 100


FULL = {
    "train": Sizes(train=60, dev=6, test=0, epochs=2),
    "decode": Sizes(train=64, dev=26, test=26, epochs=6),
    "rescore": Sizes(train=64, dev=20, test=20, epochs=6),
}

# Set-up checkpoints for decode and rescore must leave the loss plateau, or
# ALSD cannot complete: one utterance per step, peak LR 1e-2, no
# augmentation. The train workload keeps the config's default recipe.
SETUP_RECIPE = {
    "batch_size": 1,
    "peak_lr": 1e-2,
    "switchout": False,
    "sequence_noise": False,
    "specaugment": False,
    "dropconnect_rate": 0.0,
}


def build_config(workload: str, sizes: Sizes, seed: int) -> dict:
    config = ex.default_config()
    config["task"].update(train_size=sizes.train, dev_size=sizes.dev, test_size=sizes.test)
    config["training"]["epochs"] = sizes.epochs
    if workload != "train":
        config["training"].update(SETUP_RECIPE)
    config["experiment"]["seed"] = seed
    return config


POOL_FACTOR = 8
TASK_SEED = 1


def balanced(utterances, n, length_range):
    """The first utterances of each transcript length, `n` in all, spread
    evenly over the lengths in `length_range`."""
    lengths = range(length_range[0], length_range[1] + 1)
    quota = {u: n // len(lengths) + (k < n % len(lengths)) for k, u in enumerate(lengths)}
    chosen = []
    for utt in utterances:
        if quota.get(len(utt.labels), 0) > 0:
            quota[len(utt.labels)] -= 1
            chosen.append(utt)
    if len(chosen) != n:
        raise WorkbenchError(f"pool of {len(utterances)} too small for {n} balanced utterances")
    return chosen


def timed_into(sink: list):
    """Wrapper factory: each call's wall time is appended to `sink`."""

    def make(original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink.append(perf_counter() - start)

        return timed

    return make


@contextmanager
def patched(module, attr, make_wrapper):
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


@dataclass
class Round:
    wall_s: float  # timed stage only
    units: int  # utterances (train: utterance-steps) through the timed stage
    latencies_s: list
    attempted: int
    failed: int
    round_s: float = 0.0  # the whole round, set by _measure


class _TimedRecords(list):
    """Decoder records whose iteration times each loop body, so the LM
    components that `attach_lm_components` adds are timed per utterance."""

    def __init__(self, records, sink):
        super().__init__(records)
        self._sink = sink

    def __iter__(self):
        for record in list.__iter__(self):
            start = perf_counter()
            yield record
            self._sink.append(perf_counter() - start)


# ---------------------------------------------------------------------------


class Workload:
    setup_repeats = 1

    def __init__(self, name: str, sizes: Sizes, seed: int, run_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.run_dir = run_dir
        self.config = build_config(name, sizes, seed)
        self.rng = RandomStream(seed)
        self.proxies: list = []
        self.figures: dict = {}

    def generate(self, eval_rng: RandomStream | None = None):
        """Like `stage_generate`, but each split holds the same number of
        utterances of every transcript length, drawn from a pool
        `POOL_FACTOR` times larger, so the work per round does not follow
        the seed's length draw. With `eval_rng`, dev and test are drawn
        from their pools in that stream's order."""
        ex.write_config(self.run_dir / "config.ini", self.config)
        rng = self.rng.child(100)
        pool_config = ex.build_task_config(self.config)
        for split in ("train", "dev", "test"):
            setattr(pool_config, f"{split}_size", POOL_FACTOR * self.config["task"][f"{split}_size"])
        task = generate_synthetic_task(pool_config, rng.child(1))
        self.alphabet = task.alphabet
        self.datasets = {}
        for tag, split in enumerate(("train", "dev", "test")):
            pool = getattr(task, split)
            utterances = pool.utterances
            if eval_rng is not None and split != "train":
                utterances = [utterances[i] for i in eval_rng.child(tag).permutation(len(utterances))]
            chosen = balanced(utterances, self.config["task"][f"{split}_size"], pool_config.length_range)
            self.datasets[split] = Dataset(chosen, pool.dim, pool.aux_dim)
            write_features(self.run_dir / f"features_{split}.bin", self.datasets[split])
            write_transcripts(self.run_dir / f"transcripts_{split}.tsv", self.datasets[split], self.alphabet)
        factor = self.config["task"]["external_text_factor"]
        extra = sample_text_corpus(task, (factor - 1) * len(self.datasets["train"]), rng.child(2))
        with open(self.run_dir / "external_text.tsv", "w", encoding="utf-8") as f:
            for i, seq in enumerate(extra):
                f.write(f"ext-{i:05d}\t{self.alphabet.to_text(seq)}\n")

    def span(self, tracer, name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, args)

    def throughputs(self) -> dict:
        return {}


class TrainWorkload(Workload):
    """Both joint modes with the default recipe, dev WER each epoch, then
    both character LMs."""

    setup_repeats = 5

    def setup(self):
        self.generate()
        self.lm_s = 0.0
        self.lm_seqs = 0

    def round(self, tracer=None) -> Round:
        latencies, train_s, steps, failed = [], 0.0, 0, 0
        recipe = ex.build_recipe(self.config)
        n = len(self.datasets["train"])
        steps_per_mode = recipe.epochs * math.ceil(n / recipe.batch_size)
        self.models, self.histories = {}, {}
        for i, mode in enumerate(MODES):
            rng = self.rng.child(200 + i)
            model = ex.init_model(ex.build_model_config(self.config, mode), rng.child(10))
            model.loss_and_grads = timed_into(latencies)(model.loss_and_grads)
            start = perf_counter()
            try:
                result = training.train(
                    model, self.datasets["train"], recipe, rng.child(11),
                    dev_set=self.datasets["dev"], alphabet=self.alphabet,
                )
            except TrainingDiverged:
                failed += steps_per_mode
                result = None
            train_s += perf_counter() - start
            del model.loss_and_grads
            steps += steps_per_mode
            self.models[mode] = model
            self.histories[mode] = [r.train_nll for r in result.metrics] if result else [math.nan]
            if result:
                last = result.metrics[-1]
                self.figures[f"final_train_nll.{mode}"] = last.train_nll
                self.figures[f"final_dev_wer.{mode}"] = last.dev_wer
        start = perf_counter()
        self.span(tracer, "experiment.stage_train_lms", ex.stage_train_lms,
                  self.config, self.run_dir, self.rng.child(300), self.datasets, self.alphabet)
        self.lm_s += perf_counter() - start
        # The source LM reads the training transcripts, the external LM
        # those plus the extra text.
        n_extra = (self.config["task"]["external_text_factor"] - 1) * n
        self.lm_seqs += self.config["lm"]["epochs"] * (2 * n + n_extra)
        return Round(train_s, recipe.epochs * n * len(MODES), latencies, steps, failed)

    def outputs(self):
        return json.dumps(self.histories), json.dumps(self.figures, sort_keys=True)

    def throughputs(self):
        return {"lm_train_seq_per_s": self.lm_seqs / self.lm_s}

    def check(self) -> list[str]:
        return checks.check_train(self.models, self.histories, self.datasets["train"], self.seed)


class _TrainedSetup(Workload):
    """The task, the training set and the trained models come from
    `TASK_SEED`; the run's seed picks the dev and test utterances. Models
    trained from each seed differ in how far they leave the loss plateau,
    and with them the n-best lists and the work of a round, by up to 2x."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = RandomStream(TASK_SEED)

    def setup(self):
        self.generate(eval_rng=RandomStream(self.seed))
        self.models = {}
        for i, mode in enumerate(MODES):
            rng = self.rng.child(200 + i)
            model = ex.init_model(ex.build_model_config(self.config, mode), rng.child(10))
            result = training.train(model, self.datasets["train"], ex.build_recipe(self.config), rng.child(11))
            self.models[mode] = model
            self.figures[f"setup_final_train_nll.{mode}"] = result.metrics[-1].train_nll
        self.source_lm, self.external_lm = ex.stage_train_lms(
            self.config, self.run_dir, self.rng.child(300), self.datasets, self.alphabet
        )

    def round_models(self, tracer):
        if tracer is None:
            return self.models
        proxies = {mode: TracedDecoderModel(model, tracer) for mode, model in self.models.items()}
        self.proxies += proxies.values()
        return proxies

    def decode(self, tracer=None):
        ex.stage_decode(self.config, self.run_dir, self.round_models(tracer), self.datasets,
                        self.alphabet, self.source_lm, self.external_lm)

    def nbest_files(self):
        return tuple(
            (self.run_dir / f"nbest_{mode}_{split}.tsv").read_bytes()
            for mode in MODES for split in ("dev", "test")
        )

    def references(self):
        return {
            split: read_transcripts(self.run_dir / f"transcripts_{split}.tsv", self.alphabet)
            for split in ("dev", "test")
        }


class DecodeWorkload(_TrainedSetup):
    """`stage_decode` over dev and test: ALSD (beam 8, n-best 32,
    logsumexp merge), full-sequence LM components, n-best files."""

    def round(self, tracer=None) -> Round:
        alsd_s, lm_s, fallbacks = [], [], []

        def timed_records(original):
            return lambda *args, **kwargs: _TimedRecords(original(*args, **kwargs), lm_s)

        planned = len(MODES) * (self.sizes.dev + self.sizes.test)
        aborted = 0
        # decode_dataset calls greedy_decode only when ALSD fails.
        with patched(ex, "alsd_beam", timed_into(alsd_s)), \
                patched(ex, "greedy_decode", timed_into(fallbacks)), \
                patched(ex, "decode_dataset", timed_records):
            start = perf_counter()
            try:
                self.span(tracer, "experiment.stage_decode", self.decode, tracer)
            except WorkbenchError:
                aborted = 1
            wall = perf_counter() - start
        succeeded = len(alsd_s) - len(fallbacks) - aborted
        latencies = [a + b for a, b in zip(alsd_s, lm_s)]
        return Round(wall, planned, latencies, planned, planned - succeeded)

    def outputs(self):
        return self.nbest_files()

    def check(self) -> list[str]:
        problems = checks.check_decode(self.run_dir, self.models, self.datasets, self.alphabet,
                                       self.source_lm, self.external_lm)
        refs = self.references()
        for mode in MODES:
            for split in ("dev", "test"):
                nbest = checks.read_nbest_file(self.run_dir / f"nbest_{mode}_{split}.tsv", self.alphabet)
                wer = checks.corpus_wer(refs[split], nbest, lambda c: c[1], self.alphabet)
                self.figures[f"top1_wer.{mode}.{split}"] = wer
        return problems


class RescoreWorkload(_TrainedSetup):
    """`stage_fusion_conditions` for no_lm, shallow, density_ratio and
    combination, then the report, then `verify_report`."""

    def setup(self):
        super().setup()
        self.decode()

    def round(self, tracer=None) -> Round:
        latencies = []
        conditions = self.config["experiment"]["conditions"]
        entries = 2 * ((len(conditions) - ("combination" in conditions)) * len(MODES)
                       + ("combination" in conditions))
        models = self.round_models(tracer)
        report = ex.ExperimentReport(ex.config_fingerprint(self.config), self.seed, list(MODES))
        with patched(ex, "combine_rescore", timed_into(latencies)):
            start = perf_counter()
            try:
                self.span(tracer, "experiment.stage_fusion_conditions", ex.stage_fusion_conditions,
                          self.config, self.run_dir, models, self.datasets, self.alphabet,
                          self.source_lm, self.external_lm, report)
                with open(self.run_dir / "report.json", "w", encoding="utf-8") as f:
                    json.dump(report.to_dict(), f, indent=2)
                with open(self.run_dir / "report.txt", "w", encoding="utf-8") as f:
                    f.write(ex.render_report(report))
                self.verify_problems = self.span(
                    tracer, "experiment.verify_report", ex.verify_report, self.run_dir
                )
                failed = len({p.split(":", 1)[0] for p in self.verify_problems})
            except WorkbenchError as exc:
                self.verify_problems = [f"rescore pass failed: {exc}"]
                failed = entries
            wall = perf_counter() - start
        self.report = report.to_dict()
        units = self.sizes.dev + self.sizes.test
        return Round(wall, units, latencies, entries, failed)

    def outputs(self):
        return (json.dumps(self.report, sort_keys=True),)

    def check(self) -> list[str]:
        for condition, entries in self.report["conditions"].items():
            for name, entry in entries.items():
                for split in ("dev", "test"):
                    self.figures[f"wer.{condition}.{name}.{split}"] = entry[f"{split}_wer"]
        problems = [f"verify_report: {p}" for p in self.verify_problems]
        return problems + checks.check_rescore(
            self.run_dir, self.report, self.references(), self.alphabet, self.models, self.datasets
        )


WORKLOADS = {"train": TrainWorkload, "decode": DecodeWorkload, "rescore": RescoreWorkload}


# ---------------------------------------------------------------------------


def _measure(workload, seconds, min_samples, tracer=None, rounds=None):
    """Whole rounds until `seconds` have passed and enough latency samples
    exist, or exactly `rounds` rounds when given."""
    done: list[Round] = []
    first_outputs = None
    problems = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        done.append(workload.round(tracer))
        done[-1].round_s = perf_counter() - round_start
        outputs = workload.outputs()
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            problems.append(f"round {len(done)} output differs from round 1")
        if rounds is not None:
            if len(done) >= rounds:
                break
        elif (perf_counter() - start >= seconds
              and sum(len(r.latencies_s) for r in done) >= min_samples):
            break
    return done, problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, sizes: Sizes | None = None):
    """Returns (result, info): `result` is the benchmark's final JSON
    object, `info` the reference figures printed before it."""
    sizes = sizes or FULL[name]
    workload = WORKLOADS[name](name, sizes, seed, work_dir)
    setup_s = []
    for _ in range(workload.setup_repeats):
        start = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - start)

    rounds, problems = _measure(workload, seconds, sizes.min_samples)
    info = {"rounds": len(rounds), "round_s": [r.round_s for r in rounds]}
    latencies = sorted(1e3 * x for r in rounds for x in r.latencies_s)
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "utt_per_s": (sum(r.units for r in rounds) / sum(r.wall_s for r in rounds), "1/s"),
        "utt_ms_p50": (statistics.median(latencies), "ms"),
        "utt_ms_p90": (statistics.quantiles(latencies, n=10)[8], "ms"),
    }
    # The same figures under the names of the stage each workload times.
    workload.figures[f"{name}_utt_per_s"] = e2e["utt_per_s"][0]
    if name == "decode":
        workload.figures["decode_utt_ms_p50"] = e2e["utt_ms_p50"][0]
        workload.figures["decode_utt_ms_p90"] = e2e["utt_ms_p90"][0]
    workload.figures.update(workload.throughputs())
    if trace:
        tracer = Tracer()
        with install(tracer):
            traced, traced_problems = _measure(workload, seconds, 0, tracer, rounds=len(rounds))
        problems += traced_problems
        untraced_s = statistics.median(r.round_s for r in rounds)
        traced_s = statistics.median(r.round_s for r in traced)
        values = layer_metrics(tracer, workload.proxies, len(traced))
        values["trace.untraced_round_s"] = untraced_s
        values["trace.traced_round_s"] = traced_s
        values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items() if k in values}
        info["missing_wrap_targets"] = tracer.missing
        info["call_tree"] = tracer.call_tree()
        rounds = rounds + traced
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    info["latency_samples"] = len(latencies)
    info["setup_s_each"] = setup_s

    problems += workload.check()
    info["figures"] = workload.figures
    info["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    return result, info
