"""Outside-in tracing of the workbench's layers.

Spans are recorded around calls into the program's public functions, under
the module attribute names their callers use (for example
`transducer_workbench.model.encode`, which `TransducerModel.loss_and_grads`
calls, rather than `networks.encode`). The decoder is traced through a
proxy around the model object that `alsd_beam` receives. Nothing inside
`src/` is changed; every patch is undone when the tracer is closed.

A span is `[name, start, end, parent_index, note]`. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from transducer_workbench import experiment, fusion, model, networks, scoring, training

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # wrap targets that no longer exist
        self.missing_spans: set[str] = set()
        self.wer_pairs: set = set()

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs=None, note=None):
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if note is not None:
            span[4] = note(args, kwargs, result)
        return result

    # -- patching --------------------------------------------------------

    def wrap(self, module, attr, name, note=None):
        """Replace `module.attr` by a traced wrapper; a target that no
        longer exists is recorded in `missing` instead of raising."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            self.missing_spans.add(name)
            return
        if note is not None:
            note = _bound_note(original, note)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, note)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def close(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "notes"}."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, note) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if note is not None:
                entry["notes"].append(note)
        return out

    def under(self, name: str, ancestor: str) -> tuple[int, float]:
        """Calls and total seconds of spans `name` that run inside a span
        named `ancestor`."""
        calls, total = 0, 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                calls += 1
                total += span[2] - span[1]
        return calls, total

    def call_tree(self) -> list[dict]:
        """Aggregate (parent name, name) edges, small enough to write out."""
        edges: dict[tuple, list] = {}
        for name, start, end, parent, _ in self.spans:
            key = (self.spans[parent][0] if parent >= 0 else None, name)
            edge = edges.setdefault(key, [0, 0.0])
            edge[0] += 1
            edge[1] += end - start
        return [
            {"parent": p, "name": n, "calls": c, "total_s": t}
            for (p, n), (c, t) in sorted(edges.items(), key=lambda kv: -kv[1][1])
        ]


def _bound_note(original, note):
    """Give a note function the call's arguments by parameter name."""
    signature = inspect.signature(original)

    def bound(args, kwargs, result):
        arguments = signature.bind(*args, **kwargs)
        arguments.apply_defaults()
        return note(arguments.arguments, result)

    return bound


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    w = tracer.wrap
    for attr, name in (
        ("encode", "networks.encode"),
        ("encode_backward", "networks.encode_backward"),
        ("predict_embed", "networks.predict_embed"),
        ("predict_backward", "networks.predict_backward"),
        ("joint_forward_lattice", "joint.forward_lattice"),
        ("joint_backward_lattice", "joint.backward_lattice"),
        ("rnnt_backward", "lattice.rnnt_backward"),
    ):
        w(model, attr, name)
    w(model, "rnnt_forward", "lattice.rnnt_forward",
      note=lambda a, r: a["lattice"].shape[0] * a["lattice"].shape[1])

    w(training, "train", "training.train")
    w(training, "batch_loss_and_grads", "training.batch_loss_and_grads",
      note=lambda a, r: len(a["items"]))
    w(training, "optimizer_step", "training.optimizer_step")
    w(training, "greedy_decode", "decoding.greedy_decode")
    for attr in ("pick_donor", "sequence_noise_inject", "spec_augment", "switchout"):
        w(training, attr, "augment")
    w(networks, "lm_loss_and_grads", "networks.lm_loss_and_grads")

    w(experiment, "alsd_beam", "decoding.alsd_beam")
    w(experiment, "lm_score", "networks.lm_score")
    w(fusion, "lm_score", "networks.lm_score")
    w(experiment, "write_nbest", "fusion.write_nbest")
    w(experiment, "read_nbest", "fusion.read_nbest")
    w(experiment, "tune_weights", "fusion.tune_weights", note=_grid_cells)
    w(experiment, "combine_rescore", "fusion.combine_rescore", note=_union_size)

    def wer_note(a, r):
        tracer.wer_pairs.add((tuple(a["reference"]), tuple(a["hypothesis"])))

    # tune_weights imports compute_wer from the scoring module at call time.
    w(scoring, "compute_wer", "scoring.compute_wer", note=wer_note)
    w(experiment, "compute_wer", "scoring.compute_wer", note=wer_note)
    return tracer


def _grid_cells(a, result) -> int:
    cells = len(a["mu_grid"]) * len(a["lam_grid"]) * len(a["rho_grid"])
    return cells * (len(a["alpha_beta_grid"]) if a["alpha_beta_grid"] is not None else 1)


def _union_size(a, result) -> int:
    return len({h.labels for h in a["nbest_a"]} | {h.labels for h in a["nbest_b"]})


# ---------------------------------------------------------------------------
# Decoder proxy


class _TracedState:
    """Opaque wrapper around a prediction state, numbered at creation so the
    proxy can tell which states the joint network later reads."""

    __slots__ = ("inner", "serial")

    def __init__(self, inner, serial):
        self.inner = inner
        self.serial = serial


class TracedDecoderModel:
    """Proxy for the decoder interface of a TransducerModel: spans around
    encode/extend/joint/lattice calls, and the states made versus read."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.states_made = 0
        self.states_read: set[int] = set()
        self.cap_steps = 0  # ALSD's expansion cap: 3 x T' at the default expansion_factor

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def encode_features(self, features, aux=None):
        H = self._tracer.call("model.encode_features", self._inner.encode_features, (features, aux))
        self.cap_steps += 3 * H.shape[0]
        return H

    def init_decode_state(self):
        return _TracedState(self._inner.init_decode_state(), 0)

    def extend_decode_state(self, state, label):
        inner = self._tracer.call(
            "model.extend_decode_state", self._inner.extend_decode_state, (state.inner, label)
        )
        self.states_made += 1
        return _TracedState(inner, self.states_made)

    def joint_log_probs(self, h_vec, state):
        if state.serial:
            self.states_read.add(state.serial)
        return self._tracer.call(
            "model.joint_log_probs", self._inner.joint_log_probs, (h_vec, state.inner)
        )

    def lattice_nll(self, H, labels):
        return self._tracer.call("model.lattice_nll", self._inner.lattice_nll, (H, labels))


# ---------------------------------------------------------------------------
# Per-layer metrics

# name -> unit. Every traced run reports all of them; a layer a workload
# does not exercise reads 0.
PER_LAYER = {
    "networks.encode_ms_per_utt": "ms",
    "networks.encode_backward_ms_per_utt": "ms",
    "networks.predict_embed_ms_per_utt": "ms",
    "networks.predict_backward_ms_per_utt": "ms",
    "joint.forward_lattice_ms_per_utt": "ms",
    "joint.backward_lattice_ms_per_utt": "ms",
    "lattice.rnnt_forward_ms_per_utt": "ms",
    "lattice.rnnt_backward_ms_per_utt": "ms",
    "lattice.nodes_per_utt": "count",
    "augment.ms_per_utt": "ms",
    "training.optimizer_ms_per_step": "ms",
    "training.train_self_ms_per_step": "ms",
    "decoding.greedy_ms_per_utt": "ms",
    "networks.lm_loss_ms_per_seq": "ms",
    "decoding.alsd_ms_per_utt": "ms",
    "decoding.alsd_self_ms_per_utt": "ms",
    "model.extend_decode_state_calls_per_utt": "count",
    "model.extend_decode_state_us": "us",
    "model.joint_log_probs_calls_per_utt": "count",
    "model.joint_log_probs_us": "us",
    "decoding.pred_steps_read_ratio": "ratio",
    "decoding.joint_calls_per_cap_step": "count",
    "networks.lm_score_calls_per_utt": "count",
    "fusion.write_nbest_ms": "ms",
    "fusion.read_nbest_ms": "ms",
    "fusion.tune_weights_ms": "ms",
    "fusion.tune_weights_self_ms": "ms",
    "fusion.tune_cells": "count",
    "scoring.compute_wer_calls": "count",
    "scoring.compute_wer_distinct_ratio": "ratio",
    "fusion.combine_rescore_ms_per_utt": "ms",
    "fusion.combine_rescore_self_ms_per_utt": "ms",
    "fusion.union_hyps_per_utt": "count",
    "model.lattice_nll_calls": "count",
    "model.lattice_nll_us": "us",
    "networks.lm_score_calls": "count",
    "experiment.verify_report_ms": "ms",
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _Missing(Exception):
    """A metric reads a span whose wrap target no longer exists."""


def layer_metrics(tracer: Tracer, proxies, rounds: int) -> dict[str, float]:
    """Per-layer values from one traced set of `rounds` rounds. Times are
    means per call unless the name says otherwise; counts without a
    divisor in their name are per round. A metric that reads a missing
    wrap target is left out."""
    s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}

    def get(name):
        if name in tracer.missing_spans:
            raise _Missing(name)
        return s.get(name, empty)

    def ms_per_call(name, key="total_s"):
        e = get(name)
        return 1e3 * _ratio(e[key], e["calls"])

    def notes_mean(name):
        notes = get(name)["notes"]
        return _ratio(sum(notes), len(notes))

    def optimizer_ms_per_step():
        get("training.train")
        get("training.optimizer_step")
        steps, seconds = tracer.under("training.optimizer_step", "training.train")
        return 1e3 * _ratio(seconds, steps)

    def train_self_ms_per_step():
        steps, _ = tracer.under("training.optimizer_step", "training.train")
        return 1e3 * _ratio(get("training.train")["self_s"], steps)

    decodes = lambda: get("decoding.alsd_beam")["calls"]  # noqa: E731
    per_decode = lambda name: _ratio(get(name)["calls"], decodes())  # noqa: E731
    per_round = lambda name: _ratio(get(name)["calls"], rounds)  # noqa: E731
    made = sum(p.states_made for p in proxies)
    read = sum(len(p.states_read) for p in proxies)
    cap_steps = sum(p.cap_steps for p in proxies)

    computed = {
        "networks.encode_ms_per_utt": lambda: ms_per_call("networks.encode"),
        "networks.encode_backward_ms_per_utt": lambda: ms_per_call("networks.encode_backward"),
        "networks.predict_embed_ms_per_utt": lambda: ms_per_call("networks.predict_embed"),
        "networks.predict_backward_ms_per_utt": lambda: ms_per_call("networks.predict_backward"),
        "joint.forward_lattice_ms_per_utt": lambda: ms_per_call("joint.forward_lattice"),
        "joint.backward_lattice_ms_per_utt": lambda: ms_per_call("joint.backward_lattice"),
        "lattice.rnnt_forward_ms_per_utt": lambda: ms_per_call("lattice.rnnt_forward"),
        "lattice.rnnt_backward_ms_per_utt": lambda: ms_per_call("lattice.rnnt_backward"),
        "lattice.nodes_per_utt": lambda: notes_mean("lattice.rnnt_forward"),
        "augment.ms_per_utt": lambda: 1e3 * _ratio(
            get("augment")["total_s"], sum(get("training.batch_loss_and_grads")["notes"])
        ),
        "training.optimizer_ms_per_step": optimizer_ms_per_step,
        "training.train_self_ms_per_step": train_self_ms_per_step,
        "decoding.greedy_ms_per_utt": lambda: ms_per_call("decoding.greedy_decode"),
        "networks.lm_loss_ms_per_seq": lambda: ms_per_call("networks.lm_loss_and_grads"),
        "decoding.alsd_ms_per_utt": lambda: ms_per_call("decoding.alsd_beam"),
        "decoding.alsd_self_ms_per_utt": lambda: ms_per_call("decoding.alsd_beam", "self_s"),
        "model.extend_decode_state_calls_per_utt": lambda: per_decode("model.extend_decode_state"),
        "model.extend_decode_state_us": lambda: 1e3 * ms_per_call("model.extend_decode_state"),
        "model.joint_log_probs_calls_per_utt": lambda: per_decode("model.joint_log_probs"),
        "model.joint_log_probs_us": lambda: 1e3 * ms_per_call("model.joint_log_probs"),
        "decoding.pred_steps_read_ratio": lambda: _ratio(read, made),
        # Only ALSD runs 3*T' expansion steps; rescore encodes through the
        # proxy too, so the ratio is 0 where no ALSD ran.
        "decoding.joint_calls_per_cap_step": lambda: (
            _ratio(get("model.joint_log_probs")["calls"], cap_steps) if decodes() else 0.0
        ),
        "networks.lm_score_calls_per_utt": lambda: per_decode("networks.lm_score"),
        "fusion.write_nbest_ms": lambda: ms_per_call("fusion.write_nbest"),
        "fusion.read_nbest_ms": lambda: ms_per_call("fusion.read_nbest"),
        "fusion.tune_weights_ms": lambda: ms_per_call("fusion.tune_weights"),
        "fusion.tune_weights_self_ms": lambda: ms_per_call("fusion.tune_weights", "self_s"),
        "fusion.tune_cells": lambda: _ratio(sum(get("fusion.tune_weights")["notes"]), rounds),
        "scoring.compute_wer_calls": lambda: per_round("scoring.compute_wer"),
        "scoring.compute_wer_distinct_ratio": lambda: _ratio(
            len(tracer.wer_pairs), get("scoring.compute_wer")["calls"]
        ),
        "fusion.combine_rescore_ms_per_utt": lambda: ms_per_call("fusion.combine_rescore"),
        "fusion.combine_rescore_self_ms_per_utt": lambda: ms_per_call(
            "fusion.combine_rescore", "self_s"
        ),
        "fusion.union_hyps_per_utt": lambda: notes_mean("fusion.combine_rescore"),
        "model.lattice_nll_calls": lambda: per_round("model.lattice_nll"),
        "model.lattice_nll_us": lambda: 1e3 * ms_per_call("model.lattice_nll"),
        "networks.lm_score_calls": lambda: per_round("networks.lm_score"),
        "experiment.verify_report_ms": lambda: ms_per_call("experiment.verify_report"),
    }
    out = {}
    for name, compute in computed.items():
        try:
            out[name] = compute()
        except _Missing:
            pass
    return out
