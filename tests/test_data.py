import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import render_utterance_reference, sample_transcript_reference
from transducer_workbench import data
from transducer_workbench.data import (
    Alphabet,
    Dataset,
    SyntheticTaskConfig,
    TranscriptModel,
    Utterance,
    append_deltas,
    attach_transcripts,
    generate_synthetic_task,
    read_features,
    read_transcripts,
    sample_text_corpus,
    write_features,
    write_transcripts,
)
from transducer_workbench.errors import ContractViolation, IngestError
from transducer_workbench.numerics import CumulativeTable, RandomStream


class PerCharacterAlphabet:
    """The per-character text conversion that the translate tables of
    `Alphabet` replaced, kept as their reference."""

    def __init__(self, size, separator=None):
        self.size, self.separator = size, separator

    def char(self, label: int) -> str:
        if not 0 <= label < self.size:
            raise ContractViolation(f"label {label} outside alphabet of {self.size}")
        if label == self.separator:
            return " "
        return chr(ord("a") + label)

    def to_text(self, labels) -> str:
        return "".join(self.char(lab) for lab in labels)

    def to_labels(self, text: str) -> tuple[int, ...]:
        out = []
        for ch in text:
            if ch == " ":
                if self.separator is None:
                    raise ContractViolation("text contains a space but no separator is set")
                out.append(self.separator)
            else:
                lab = ord(ch) - ord("a")
                if not 0 <= lab < self.size or lab == self.separator:
                    raise ContractViolation(f"character {ch!r} outside the alphabet")
                out.append(lab)
        return tuple(out)

    def words(self, labels) -> list[str]:
        return [w for w in self.to_text(labels).split(" ") if w]


def _outcome(method, *args):
    """A conversion's result, or the message of the ContractViolation it raised."""
    try:
        return method(*args)
    except ContractViolation as exc:
        return ("raised", str(exc))


@st.composite
def alphabets(draw):
    size = draw(st.integers(1, 26))
    return size, draw(st.none() | st.integers(0, size - 1))


class TestAlphabet:
    conversion_settings = settings(max_examples=400, deadline=None, derandomize=True,
                                   database=None)

    @conversion_settings
    @given(alphabets(), st.lists(st.integers(-3, 30) | st.integers(-(2**70), 2**70), max_size=12))
    def test_labels_to_text_equal_the_per_character_reference(self, spec, labels):
        # In-range labels mostly, with negative ones, ones at or above the
        # size, and ones past a byte.
        new, old = Alphabet(*spec), PerCharacterAlphabet(*spec)
        assert _outcome(new.to_text, labels) == _outcome(old.to_text, labels)
        assert _outcome(new.words, labels) == _outcome(old.words, labels)

    @conversion_settings
    @given(alphabets(), st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyz  ?`{\x00\x7fé€"),
                                max_size=12) | st.text(max_size=6))
    def test_text_to_labels_equals_the_per_character_reference(self, spec, text):
        # The separator's own letter, spaces with and without a separator,
        # and ASCII and non-ASCII characters outside the alphabet.
        new, old = Alphabet(*spec), PerCharacterAlphabet(*spec)
        assert _outcome(new.to_labels, text) == _outcome(old.to_labels, text)

    def test_render_and_parse(self):
        a = Alphabet(4, separator=3)
        labels = (0, 1, 3, 2, 2)
        assert a.to_text(labels) == "ab cc"
        assert a.to_labels("ab cc") == labels

    def test_words(self):
        a = Alphabet(4, separator=3)
        assert a.words((0, 1, 3, 2, 2)) == ["ab", "cc"]
        assert a.words((3, 0, 3, 3)) == ["a"]
        assert a.words(()) == []

    def test_bad_sizes(self):
        with pytest.raises(ContractViolation):
            Alphabet(0)
        with pytest.raises(ContractViolation):
            Alphabet(30)
        with pytest.raises(ContractViolation):
            Alphabet(4, separator=4)

    def test_parse_errors(self):
        a = Alphabet(3)
        with pytest.raises(ContractViolation):
            a.to_labels("a b")  # no separator configured
        with pytest.raises(ContractViolation):
            a.to_labels("z")


class TestSyntheticTask:
    def _config(self, **kw):
        defaults = dict(
            num_labels=5, feature_dim=4, frames_per_symbol=(2, 3), noise_level=0.2,
            length_range=(2, 4), train_size=6, dev_size=3, test_size=3,
        )
        defaults.update(kw)
        return SyntheticTaskConfig(**defaults)

    def test_same_seed_identical(self):
        a = generate_synthetic_task(self._config(), RandomStream(5))
        b = generate_synthetic_task(self._config(), RandomStream(5))
        for split in ("train", "dev", "test"):
            for ua, ub in zip(getattr(a, split), getattr(b, split)):
                assert ua.utt_id == ub.utt_id
                assert ua.labels == ub.labels
                np.testing.assert_array_equal(ua.frames, ub.frames)

    def test_zero_noise_fixed_duration_is_template_concat(self):
        config = self._config(noise_level=0.0, frames_per_symbol=(2, 2))
        task = generate_synthetic_task(config, RandomStream(6))
        utt = task.train.utterances[0]
        expected = np.concatenate(
            [np.tile(task.templates[lab], (2, 1)) for lab in utt.labels]
        ).astype(np.float32)
        np.testing.assert_array_equal(utt.frames, expected)

    def test_splits_disjoint_by_id(self):
        task = generate_synthetic_task(self._config(), RandomStream(7))
        ids = [u.utt_id for u in task.train] + [u.utt_id for u in task.dev] + [
            u.utt_id for u in task.test
        ]
        assert len(set(ids)) == len(ids)

    def test_lengths_and_labels_in_range(self):
        task = generate_synthetic_task(self._config(), RandomStream(8))
        for utt in task.train:
            assert 2 <= len(utt.labels) <= 4
            assert all(0 <= lab < 5 for lab in utt.labels)
            lo = 2 * len(utt.labels)
            hi = 3 * len(utt.labels)
            assert lo <= utt.num_frames <= hi

    def test_aux_vectors_attached_per_speaker(self):
        task = generate_synthetic_task(self._config(aux_dim=3), RandomStream(9))
        by_speaker = {}
        for utt in task.train:
            assert utt.aux is not None and utt.aux.shape == (3,)
            if utt.speaker in by_speaker:
                np.testing.assert_array_equal(utt.aux, by_speaker[utt.speaker])
            by_speaker[utt.speaker] = utt.aux

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ContractViolation):
            self._config(num_labels=0)

    def test_text_corpus_sampling(self):
        task = generate_synthetic_task(self._config(), RandomStream(10))
        a = sample_text_corpus(task, 5, RandomStream(11))
        b = sample_text_corpus(task, 5, RandomStream(11))
        assert a == b
        assert all(2 <= len(seq) <= 4 for seq in a)


@st.composite
def task_configs(draw):
    """Small tasks over every alphabet size, with Markov transcripts on and
    off, zero and positive concentration and noise, fixed and variable
    symbol durations, and speaker vectors or none."""
    shortest, fewest_frames = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return SyntheticTaskConfig(
        num_labels=draw(st.integers(1, 26)),
        feature_dim=draw(st.integers(1, 4)),
        frames_per_symbol=(fewest_frames, fewest_frames + draw(st.integers(0, 2))),
        noise_level=draw(st.just(0.0) | st.floats(1e-3, 2.0)),
        length_range=(shortest, shortest + draw(st.integers(0, 4))),
        train_size=draw(st.integers(0, 6)),
        dev_size=draw(st.integers(0, 3)),
        test_size=draw(st.integers(0, 3)),
        aux_dim=draw(st.sampled_from([0, 0, 2])),
        markov_transcripts=draw(st.booleans()),
        markov_concentration=draw(st.just(0.0) | st.floats(0.01, 5.0)),
    )


class TestSamplingTables:
    """Transcripts and extra text drawn from tables built once per row, and
    frames rendered by broadcasting, equal the per-draw sampler and the
    tiling renderer they replaced (`helpers`), byte for byte."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(task_configs(), st.integers(0, 2**63))
    def test_task_and_text_equal_the_per_draw_reference(self, config, seed):
        new = generate_synthetic_task(config, RandomStream(seed))
        new_text = sample_text_corpus(new, 6, RandomStream(seed).child(3))
        with mock.patch.object(data, "_render_utterance", render_utterance_reference), \
                mock.patch.object(TranscriptModel, "sample", sample_transcript_reference):
            old = generate_synthetic_task(config, RandomStream(seed))
            old_text = sample_text_corpus(old, 6, RandomStream(seed).child(3))
        assert new_text == old_text
        assert new.templates.tobytes() == old.templates.tobytes()
        for split in ("train", "dev", "test"):
            pairs = list(zip(getattr(new, split), getattr(old, split), strict=True))
            for a, b in pairs:
                assert (a.utt_id, a.labels, a.speaker) == (b.utt_id, b.labels, b.speaker)
                assert a.frames.dtype == b.frames.dtype == np.float32
                assert a.frames.shape == b.frames.shape
                assert a.frames.tobytes() == b.frames.tobytes()
                assert (a.aux is None) == (b.aux is None)
                assert a.aux is None or a.aux.tobytes() == b.aux.tobytes()

    def test_one_table_per_row_and_no_per_symbol_choice(self, monkeypatch):
        # One task builds its initial row's table and one per transition
        # row, and draws every symbol of its splits and of extra text from
        # them: no other table is built anywhere.
        built = []
        real_init = CumulativeTable.__init__

        def counted_init(self, weights):
            built.append(len(weights))
            real_init(self, weights)

        monkeypatch.setattr(CumulativeTable, "__init__", counted_init)
        config = SyntheticTaskConfig(num_labels=6, feature_dim=3, train_size=20, dev_size=5,
                                     test_size=5)
        task = generate_synthetic_task(config, RandomStream(12))
        text = sample_text_corpus(task, 10, RandomStream(13))
        symbols = sum(len(u.labels) for split in (task.train, task.dev, task.test) for u in split)
        assert symbols + sum(map(len, text)) > 100
        assert built == [6] * 7


class TestDeltas:
    def test_shape_triples(self):
        out = append_deltas(np.zeros((7, 3)))
        assert out.shape == (7, 9)

    def test_linear_ramp(self):
        frames = np.arange(5.0)[:, None]
        out = append_deltas(frames)
        np.testing.assert_allclose(out[1:-1, 1], 1.0)  # interior slope
        np.testing.assert_allclose(out[0, 1], 0.5)  # clamped edge


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
container_values = st.floats(width=32, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, F32_TINY, -F32_TINY, float(np.finfo(np.float32).tiny), F32_MAX, -F32_MAX])
text_chars = st.characters(exclude_categories=("Cs",))


@st.composite
def container_texts(draw):
    """Text the container holds: any non-surrogate characters, at most
    65,535 UTF-8 bytes, sometimes filled up to that limit."""
    text = draw(st.text(text_chars, max_size=6))
    if draw(st.booleans()):
        fill = draw(text_chars)
        text += fill * ((65535 - len(text.encode("utf-8"))) // len(fill.encode("utf-8")))
    return text


@st.composite
def feature_datasets(draw):
    dim, aux_dim = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    utts = []
    for _ in range(draw(st.integers(0, 3))):
        frames = draw(arrays(np.float32, (draw(st.integers(0, 5)), dim), elements=container_values))
        aux = draw(arrays(np.float32, aux_dim, elements=container_values)) if aux_dim else None
        utts.append(Utterance(draw(container_texts()), frames, (), draw(container_texts()), aux))
    return Dataset(utts, dim, aux_dim)


class TestContainer:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(feature_datasets(), st.data())
    def test_any_dataset_round_trips_bitwise(self, ds, data):
        # Then one value made non-finite: the write is refused and the file
        # written before stays as it was.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "feats.bin"
            write_features(path, ds)
            back = read_features(path)
            assert (back.dim, back.aux_dim, len(back)) == (ds.dim, ds.aux_dim, len(ds))
            for orig, loaded in zip(ds, back):
                assert (loaded.utt_id, loaded.speaker) == (orig.utt_id, orig.speaker)
                for name in ("frames", "aux") if ds.aux_dim else ("frames",):
                    a, b = getattr(orig, name), getattr(loaded, name)
                    assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes())
            cells = [(utt, arr) for utt in ds for arr in (utt.frames, utt.aux)
                     if arr is not None and arr.size]
            if not cells:
                return
            utt, arr = data.draw(st.sampled_from(cells))
            arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
            earlier = path.read_bytes()
            with pytest.raises(IngestError,
                               match=f"^utterance {re.escape(utt.utt_id)} has non-finite features$"):
                write_features(path, ds)
            assert path.read_bytes() == earlier

    def test_nonfinite_aux_rejected_on_read(self, tmp_path):
        path = tmp_path / "feats.bin"
        write_features(path, self._dataset(aux_dim=3))
        data = path.read_bytes()
        path.write_bytes(data[:-4] + np.array([np.inf], dtype="<f4").tobytes())
        with pytest.raises(IngestError, match="^utterance utt-3 has non-finite features$"):
            read_features(path)

    def _dataset(self, aux_dim=0):
        rng = RandomStream(12)
        utts = []
        for i in range(4):
            T = int(rng.integers(3, 8))
            utts.append(
                Utterance(
                    utt_id=f"utt-{i}",
                    frames=rng.normal(size=(T, 5)).astype(np.float32),
                    labels=(0, 1),
                    speaker=f"spk{i % 2}",
                    aux=rng.normal(size=aux_dim).astype(np.float32) if aux_dim else None,
                )
            )
        return Dataset(utts, 5, aux_dim)

    @pytest.mark.parametrize("aux_dim", [0, 3])
    def test_roundtrip_bitwise(self, tmp_path, aux_dim):
        ds = self._dataset(aux_dim)
        path = tmp_path / "feats.bin"
        write_features(path, ds)
        back = read_features(path)
        assert back.dim == 5 and back.aux_dim == aux_dim
        for orig, loaded in zip(ds, back):
            assert loaded.utt_id == orig.utt_id
            assert loaded.speaker == orig.speaker
            np.testing.assert_array_equal(loaded.frames, orig.frames)
            if aux_dim:
                np.testing.assert_array_equal(loaded.aux, orig.aux)

    def test_truncated_file_names_offset(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feats.bin"
        write_features(path, ds)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(IngestError, match=r"truncated file at byte \d+"):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(IngestError, match="magic"):
            read_features(path)

    def test_trailing_garbage(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feats.bin"
        write_features(path, ds)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(IngestError, match="trailing"):
            read_features(path)

    @pytest.mark.parametrize("field, text", [("utterance id", b"utt-2"), ("speaker id", b"spk1")])
    def test_id_outside_utf8_names_the_offset(self, tmp_path, field, text):
        path = tmp_path / "feats.bin"
        write_features(path, self._dataset())
        data = path.read_bytes()
        offset = data.index(text) + 2
        path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
        with pytest.raises(IngestError, match=f"^{field} at byte {offset} is not UTF-8$"):
            read_features(path)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        ds = self._dataset()
        ds.utterances[1].frames[0, 0] = np.inf
        with pytest.raises(IngestError, match="utt-1"):
            write_features(tmp_path / "x.bin", ds)

    def test_dimension_drift_names_both_utterances(self):
        rng = RandomStream(13)
        utts = [
            Utterance("first", rng.normal(size=(3, 4)).astype(np.float32), ()),
            Utterance("second", rng.normal(size=(3, 5)).astype(np.float32), ()),
        ]
        with pytest.raises(IngestError, match="first.*second|second.*first"):
            Dataset(utts, 4)


class TestTranscripts:
    def test_roundtrip(self, tmp_path):
        alphabet = Alphabet(4, separator=3)
        rng = RandomStream(14)
        utts = [
            Utterance(
                f"u{i}",
                rng.normal(size=(3, 2)).astype(np.float32),
                tuple(int(v) for v in rng.integers(0, 4, size=4)),
            )
            for i in range(3)
        ]
        ds = Dataset(utts, 2)
        path = tmp_path / "text.tsv"
        write_transcripts(path, ds, alphabet)
        back = read_transcripts(path, alphabet)
        for utt in utts:
            assert back[utt.utt_id] == utt.labels
        # The mapping form writes the same file.
        again = tmp_path / "again.tsv"
        write_transcripts(again, back, alphabet)
        assert again.read_bytes() == path.read_bytes()

    def test_attach(self, tmp_path):
        alphabet = Alphabet(3)
        utts = [Utterance("a", np.zeros((2, 2), dtype=np.float32), ())]
        ds = Dataset(utts, 2)
        attach_transcripts(ds, {"a": (0, 1)})
        assert ds.utterances[0].labels == (0, 1)
        with pytest.raises(IngestError, match="b"):
            attach_transcripts(Dataset([Utterance("b", np.zeros((2, 2), dtype=np.float32), ())], 2), {})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("no-tab-here\n")
        with pytest.raises(IngestError, match="TAB"):
            read_transcripts(path, Alphabet(3))

    def test_character_outside_the_alphabet_names_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tab\n\nb\tah\n")
        with pytest.raises(IngestError, match="line 3: character 'h' outside the alphabet"):
            read_transcripts(path, Alphabet(3))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_byte_outside_utf8_names_the_line(self, tmp_path, newline):
        # Lines are counted as text-mode reading counts them.
        path = tmp_path / "bad.tsv"
        path.write_bytes(newline.join([b"a\tab", b"", b"b\ta\xe9b", b""]))
        with pytest.raises(IngestError, match="^line 3: byte 0xe9 is not UTF-8$"):
            read_transcripts(path, Alphabet(3))
