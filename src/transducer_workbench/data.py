"""Datasets for the workbench: the synthetic transduction task, the binary
feature container, and transcript files; and `atomic_write`, the one
crash-safe way the workbench writes a text artifact.

Features are stored as 32-bit floats (both on disk and in memory) so that
write -> read round-trips are bitwise; the model promotes to 64-bit at its
input. Transcripts are label-id sequences over Y; a designated separator
symbol marks word boundaries and is rendered as a space in text files.

Transcripts (and extra LM text) are sampled one symbol at a time from a
first-order chain. Each row of the chain is a `numerics.CumulativeTable`,
built and checked once per transcript model; a symbol is one uniform draw,
scaled by the row's total and bisected into its running sums. That is the
index `RandomStream.choice_weighted` would draw from the same row and the
same uniform, bit for bit, so the sampled text does not depend on whether
the table is kept.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IngestError
from .numerics import CumulativeTable, RandomStream

_MAGIC = b"TWBF"
_VERSION = 1


_NO_MAPPING = 0xFF  # translate-table entry of a byte that maps to nothing


@dataclass(frozen=True)
class Alphabet:
    """Maps label ids in Y to characters; the separator renders as a space.

    Both directions are `bytes.translate` tables over 256 entries, built
    once: label -> character byte, and character byte -> label. Entries
    outside the alphabet hold _NO_MAPPING, which no label or character
    byte equals, so one search for it finds the first bad input."""

    size: int
    separator: int | None = None

    def __post_init__(self):
        if not 1 <= self.size <= 26:
            raise ContractViolation("alphabet size must be in 1..26")
        if self.separator is not None and not 0 <= self.separator < self.size:
            raise ContractViolation("separator id outside the alphabet")
        chars = bytes(
            ord(" ") if label == self.separator else ord("a") + label for label in range(self.size)
        )
        to_chars, to_labels = bytearray([_NO_MAPPING]) * 256, bytearray([_NO_MAPPING]) * 256
        to_chars[: self.size] = chars
        for label, char in enumerate(chars):
            to_labels[char] = label
        object.__setattr__(self, "_to_chars", bytes(to_chars))
        object.__setattr__(self, "_to_labels", bytes(to_labels))

    def to_text(self, labels) -> str:
        labels = tuple(labels)
        try:
            text = bytes(labels).translate(self._to_chars)
        except ValueError:  # a label outside 0..255
            text = bytes([_NO_MAPPING])
        if _NO_MAPPING in text:
            bad = next(label for label in labels if not 0 <= label < self.size)
            raise ContractViolation(f"label {bad} outside alphabet of {self.size}")
        return text.decode("ascii")

    def to_labels(self, text: str) -> tuple[int, ...]:
        # "replace" encodes each non-ASCII character as one byte, so byte
        # positions are character positions.
        labels = text.encode("ascii", "replace").translate(self._to_labels)
        bad = labels.find(_NO_MAPPING)
        if bad >= 0:
            if text[bad] == " ":
                raise ContractViolation("text contains a space but no separator is set")
            raise ContractViolation(f"character {text[bad]!r} outside the alphabet")
        return tuple(labels)

    def words(self, labels) -> list[str]:
        """Whitespace-style word split on the separator symbol."""
        return self.to_text(labels).split()


@dataclass
class Utterance:
    utt_id: str
    frames: np.ndarray  # (T, D) float32
    labels: tuple[int, ...]
    speaker: str = ""
    aux: np.ndarray | None = None  # (aux_dim,) float32

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class Dataset:
    utterances: list[Utterance]
    dim: int
    aux_dim: int = 0

    def __post_init__(self):
        ref = None
        for utt in self.utterances:
            if utt.frames.shape[1] != self.dim:
                if ref is None:
                    raise IngestError(
                        f"utterance {utt.utt_id} has D={utt.frames.shape[1]}, dataset D={self.dim}"
                    )
                raise IngestError(
                    f"D mismatch between utterances {ref} and {utt.utt_id}"
                )
            ref = utt.utt_id
            got_aux = 0 if utt.aux is None else utt.aux.shape[0]
            if got_aux != self.aux_dim:
                raise IngestError(
                    f"utterance {utt.utt_id} aux dim {got_aux} != dataset aux dim {self.aux_dim}"
                )

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


# ---------------------------------------------------------------------------
# Synthetic task


@dataclass
class SyntheticTaskConfig:
    num_labels: int = 8
    feature_dim: int = 10
    frames_per_symbol: tuple[int, int] = (2, 4)
    noise_level: float = 0.3
    length_range: tuple[int, int] = (3, 8)
    train_size: int = 500
    dev_size: int = 50
    test_size: int = 50
    aux_dim: int = 0
    markov_transcripts: bool = True
    markov_concentration: float = 0.3

    def __post_init__(self):
        if self.num_labels < 1:
            raise ContractViolation("alphabet must be non-empty")
        if self.noise_level < 0:
            raise ContractViolation("noise level must be >= 0")


@dataclass
class TranscriptModel:
    """First-order model over Y used to sample transcripts (and extra LM
    text). `initial` and rows of `transition` are distributions over Y.

    Immediate symbol repeats are excluded (transition diagonals are zero,
    except in the degenerate single-symbol alphabet): with variable symbol
    durations, "aa" and a longer "a" would render identical features, which
    would put an irreducible floor under the task's error rate."""

    initial: np.ndarray
    transition: np.ndarray
    tables: list[CumulativeTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tables = [CumulativeTable(row) for row in (self.initial, *self.transition)]

    def sample(self, length: int, rng: RandomStream) -> tuple[int, ...]:
        """`length` symbols: the first drawn from `initial`, each later one
        from the transition row of the one before, each by one
        `RandomStream.draw` from that row's table (`tables[0]` for
        `initial`, `tables[1 + a]` for the row of symbol a)."""
        out = []
        table = self.tables[0]
        for _ in range(length):
            label = rng.draw(table)
            out.append(label)
            table = self.tables[1 + label]
        return tuple(out)


@dataclass
class SyntheticTask:
    config: SyntheticTaskConfig
    alphabet: Alphabet
    templates: np.ndarray  # (|Y|, D)
    transcript_model: TranscriptModel
    train: Dataset
    dev: Dataset
    test: Dataset


def _dirichlet(alpha: float, size: int, rng: RandomStream) -> np.ndarray:
    draws = rng.gen.gamma(alpha, 1.0, size=size)
    draws = np.maximum(draws, 1e-12)
    return draws / draws.sum()


def _make_transcript_model(config: SyntheticTaskConfig, rng: RandomStream) -> TranscriptModel:
    n = config.num_labels
    if not config.markov_transcripts:
        uniform = np.full(n, 1.0 / n)
        transition = np.tile(uniform, (n, 1))
    else:
        transition = np.stack(
            [_dirichlet(config.markov_concentration, n, rng.child(1 + k)) for k in range(n)]
        )
    if n > 1:
        np.fill_diagonal(transition, 0.0)
        transition = transition / transition.sum(axis=1, keepdims=True)
    initial = (
        _dirichlet(config.markov_concentration, n, rng.child(0))
        if config.markov_transcripts
        else np.full(n, 1.0 / n)
    )
    return TranscriptModel(initial, transition)


def _render_utterance(
    labels, templates, config: SyntheticTaskConfig, rng: RandomStream
) -> np.ndarray:
    """Each symbol's template row repeated for a drawn duration, plus
    `noise_level` times a normal block of that shape: per symbol, one
    duration draw and then one normal block, in label order."""
    lo, hi = config.frames_per_symbol
    dim = templates.shape[1]
    pieces = []
    for lab in labels:
        shape = (int(rng.integers(lo, hi + 1)), dim)
        if config.noise_level > 0:
            pieces.append(templates[lab] + config.noise_level * rng.normal(size=shape))
        else:
            pieces.append(np.broadcast_to(templates[lab], shape))
    return np.concatenate(pieces, axis=0, dtype=np.float32)


def generate_synthetic_task(config: SyntheticTaskConfig, rng: RandomStream) -> SyntheticTask:
    """Random transcripts over Y rendered as noisy per-symbol templates.

    Splits are disjoint by utterance id and fully determined by the stream.
    """
    alphabet = Alphabet(config.num_labels, separator=config.num_labels - 1)
    templates = rng.child(1).normal(size=(config.num_labels, config.feature_dim))
    model = _make_transcript_model(config, rng.child(2))
    speakers = {}

    def build_split(name, tag, size):
        utts = []
        for i in range(size):
            sub = rng.child(tag, i)
            length = int(sub.integers(config.length_range[0], config.length_range[1] + 1))
            labels = model.sample(length, sub)
            frames = _render_utterance(labels, templates, config, sub)
            speaker = f"spk{int(sub.integers(0, max(1, size // 10)))}"
            if config.aux_dim > 0 and speaker not in speakers:
                speakers[speaker] = sub.normal(size=config.aux_dim).astype(np.float32)
            utts.append(
                Utterance(
                    utt_id=f"{name}-{i:04d}",
                    frames=frames,
                    labels=labels,
                    speaker=speaker,
                    aux=speakers.get(speaker),
                )
            )
        return Dataset(utts, config.feature_dim, config.aux_dim)

    return SyntheticTask(
        config=config,
        alphabet=alphabet,
        templates=templates,
        transcript_model=model,
        train=build_split("train", 10, config.train_size),
        dev=build_split("dev", 11, config.dev_size),
        test=build_split("test", 12, config.test_size),
    )


def sample_text_corpus(task: SyntheticTask, size: int, rng: RandomStream) -> list[tuple[int, ...]]:
    """Extra transcripts from the task's distribution, e.g. external-LM text."""
    lo, hi = task.config.length_range
    out = []
    for i in range(size):
        sub = rng.child(20, i)
        out.append(task.transcript_model.sample(int(sub.integers(lo, hi + 1)), sub))
    return out


# ---------------------------------------------------------------------------
# Delta coefficients (off by default; real log-Mel pipelines stack these)


def append_deltas(frames: np.ndarray) -> np.ndarray:
    """Append first and second symmetric time differences to each frame."""

    def delta(x):
        up = np.vstack([x[1:], x[-1:]])
        down = np.vstack([x[:1], x[:-1]])
        return (up - down) / 2.0

    d1 = delta(frames)
    d2 = delta(d1)
    return np.concatenate([frames, d1, d2], axis=1)


# ---------------------------------------------------------------------------
# Binary feature container


def write_features(path, dataset: Dataset):
    """Self-describing container: magic, version, D, aux dim, utterance
    count, then per utterance (id, speaker, T, T*D float32, aux float32).
    Written through `atomic_write`, so a non-finite utterance leaves `path`
    as it was."""
    with atomic_write(path, binary=True) as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", _VERSION, dataset.dim, dataset.aux_dim))
        f.write(struct.pack("<I", len(dataset.utterances)))
        for utt in dataset.utterances:
            if not all(np.isfinite(a).all() for a in (utt.frames, utt.aux) if a is not None):
                raise IngestError(f"utterance {utt.utt_id} has non-finite features")
            for text in (utt.utt_id, utt.speaker):
                enc = text.encode("utf-8")
                f.write(struct.pack("<H", len(enc)))
                f.write(enc)
            f.write(struct.pack("<I", utt.num_frames))
            f.write(np.ascontiguousarray(utt.frames, dtype="<f4").tobytes())
            if dataset.aux_dim:
                f.write(np.ascontiguousarray(utt.aux, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, f):
        self.f = f
        self.offset = 0

    def read(self, n, what):
        buf = self.f.read(n)
        self.offset += len(buf)
        if len(buf) != n:
            raise IngestError(
                f"truncated file at byte {self.offset} while reading {what}"
            )
        return buf

    def read_text(self, n, what) -> str:
        start = self.offset
        raw = self.read(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"{what} at byte {start + exc.start} is not UTF-8") from exc


def read_features(path) -> Dataset:
    """Ingest a feature container, validating header, shapes and finiteness."""
    with open(path, "rb") as f:
        r = _Reader(f)
        if r.read(4, "magic") != _MAGIC:
            raise IngestError("bad magic: not a feature container")
        version, dim, aux_dim = struct.unpack("<III", r.read(12, "header"))
        if version != _VERSION:
            raise IngestError(f"unsupported container version {version}")
        (count,) = struct.unpack("<I", r.read(4, "utterance count"))
        utts = []
        for _ in range(count):
            (id_len,) = struct.unpack("<H", r.read(2, "id length"))
            utt_id = r.read_text(id_len, "utterance id")
            (spk_len,) = struct.unpack("<H", r.read(2, "speaker length"))
            speaker = r.read_text(spk_len, "speaker id")
            (T,) = struct.unpack("<I", r.read(4, f"frame count of {utt_id}"))
            raw = r.read(4 * T * dim, f"frames of {utt_id}")
            frames = np.frombuffer(raw, dtype="<f4").reshape(T, dim).copy()
            aux = None
            if aux_dim:
                aux = np.frombuffer(
                    r.read(4 * aux_dim, f"aux vector of {utt_id}"), dtype="<f4"
                ).copy()
            if not all(np.isfinite(a).all() for a in (frames, aux) if a is not None):
                raise IngestError(f"utterance {utt_id} has non-finite features")
            utts.append(Utterance(utt_id, frames, (), speaker, aux))
        if f.read(1):
            raise IngestError(f"trailing bytes after byte {r.offset}")
    return Dataset(utts, dim, aux_dim)


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open `path` for writing text (bytes when `binary`), through a
    temporary file in the same directory that replaces `path` only when the
    block ends without an error. A killed or failed write therefore never
    leaves a cut file at `path`, which a reader or `verify` would trust: on
    an error the temporary file is removed and `path` keeps its previous
    content. The temporary file is opened like the target, so permissions
    follow the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_transcripts(path, transcripts, alphabet: Alphabet):
    """One `utt_id<TAB>text` line per utterance, through `atomic_write`.
    `transcripts` is a Dataset, or a mapping from utterance id to labels
    like the one `read_transcripts` returns."""
    if isinstance(transcripts, Dataset):
        pairs = [(utt.utt_id, utt.labels) for utt in transcripts.utterances]
    else:
        pairs = transcripts.items()
    with atomic_write(path) as f:
        for utt_id, labels in pairs:
            f.write(f"{utt_id}\t{alphabet.to_text(labels)}\n")


def read_transcripts(path, alphabet: Alphabet) -> dict[str, tuple[int, ...]]:
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise IngestError(f"line {lineno}: missing TAB separator")
                utt_id, text = line.split("\t", 1)
                try:
                    out[utt_id] = alphabet.to_labels(text)
                except ContractViolation as exc:
                    raise IngestError(f"line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(not_utf8(path)) from exc
    return out


def not_utf8(path) -> str:
    """'line N: byte 0x.. is not UTF-8' for the first byte of the text file
    at `path` that does not decode, its line counted as reading the file in
    text mode counts lines. Text-mode reading decodes the file in blocks,
    so the UnicodeDecodeError it raises does not tell the line."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"line {lineno}: byte {data[exc.start]:#04x} is not UTF-8"
    return f"{path} changed while it was read"


def attach_transcripts(dataset: Dataset, transcripts: dict[str, tuple[int, ...]]):
    for utt in dataset.utterances:
        if utt.utt_id not in transcripts:
            raise IngestError(f"no transcript for utterance {utt.utt_id}")
        utt.labels = transcripts[utt.utt_id]
