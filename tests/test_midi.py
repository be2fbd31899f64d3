"""MIDI parsing/writing against hand-assembled files, and corpus filters."""

from __future__ import annotations

from pathlib import Path

import pytest

from anticipate import golden
from anticipate.corpus import (
    CorpusFilters,
    CorpusManifest,
    check_sequence,
    preprocess_corpus,
    split_for_digest,
)
from anticipate.eventio import read_events
from anticipate.events import DRUM_INSTRUMENT, Event, EventSequence, encode_note
from anticipate.midi import ChannelCapacityError, MidiParseError, parse_midi, write_midi

from conftest import random_events


# Independent byte-level file assembly (deliberately not using write_midi).
def varint(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def track(events: list[tuple[int, bytes]]) -> bytes:
    body = b""
    prev = 0
    for tick, msg in events:
        body += varint(tick - prev) + msg
        prev = tick
    body += varint(0) + bytes.fromhex("ff2f00")
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def smf(tracks: list[bytes], fmt: int = 1, division: int = 480) -> bytes:
    header = b"MThd" + (6).to_bytes(4, "big")
    header += fmt.to_bytes(2, "big") + len(tracks).to_bytes(2, "big")
    header += division.to_bytes(2, "big")
    return header + b"".join(tracks)


TEMPO_120 = (0, bytes.fromhex("ff5103") + (500_000).to_bytes(3, "big"))


def note_on(ch, pitch, vel=64):
    return bytes([0x90 | ch, pitch, vel])


def note_off(ch, pitch):
    return bytes([0x80 | ch, pitch, 0])


class TestParse:
    def test_single_note(self):
        # one C4 on channel 0, 480 ticks at 500000 us/quarter = 0.5 s
        data = smf([track([TEMPO_120, (0, note_on(0, 60)), (480, note_off(0, 60))])], fmt=0)
        assert parse_midi(data) == EventSequence([Event(0, 50, 60)])

    def test_no_notes(self):
        data = smf([track([TEMPO_120])])
        assert parse_midi(data) == EventSequence()

    def test_twinkle_reference_file(self):
        # 480ms notes are 461 ticks at this resolution; 950ms notes are 912
        events = []
        onsets = (0, 50, 100, 150, 200, 250, 300, 400, 450, 500, 550, 600, 650, 700)
        pitches = (60, 60, 67, 67, 69, 69, 67, 65, 65, 64, 64, 62, 62, 60)
        for i, (t, p) in enumerate(zip(onsets, pitches)):
            on_tick = round(t * 9.6)
            dur_ticks = 912 if i in (6, 13) else 461
            events.append((on_tick, note_on(0, p)))
            events.append((on_tick + dur_ticks, note_off(0, p)))
        events.sort(key=lambda e: e[0])
        data = smf([track([TEMPO_120])] + [track(events)])
        assert parse_midi(data) == golden.twinkle_events()

    def test_velocity_zero_is_note_off(self):
        data = smf([track([TEMPO_120, (0, note_on(0, 60)), (480, note_on(0, 60, vel=0))])])
        assert parse_midi(data) == EventSequence([Event(0, 50, 60)])

    def test_running_status(self):
        msgs = [TEMPO_120, (0, note_on(0, 60)), (480, bytes([60, 0])), (480, bytes([64, 64])), (960, bytes([64, 0]))]
        data = smf([track(msgs)])
        assert parse_midi(data) == EventSequence([Event(0, 50, 60), Event(50, 50, 64)])

    def test_drum_channel(self):
        data = smf([track([TEMPO_120, (0, note_on(9, 36)), (480, note_off(9, 36))])])
        assert parse_midi(data) == EventSequence([Event(0, 50, encode_note(DRUM_INSTRUMENT, 36))])

    def test_program_change(self):
        msgs = [TEMPO_120, (0, bytes([0xC0, 24])), (0, note_on(0, 60)), (480, note_off(0, 60))]
        data = smf([track(msgs)])
        assert parse_midi(data) == EventSequence([Event(0, 50, encode_note(24, 60))])

    def test_mid_file_tempo_change(self):
        # 0.5s at 120bpm, then the remaining 480 ticks at 240bpm = 0.25s
        msgs = [
            TEMPO_120,
            (0, note_on(0, 60)),
            (480, bytes.fromhex("ff5103") + (250_000).to_bytes(3, "big")),
            (960, note_off(0, 60)),
        ]
        data = smf([track(msgs)])
        assert parse_midi(data) == EventSequence([Event(0, 75, 60)])

    def test_overlapping_same_pitch_fifo(self):
        msgs = [
            TEMPO_120,
            (0, note_on(0, 60)),
            (480, note_on(0, 60)),
            (720, note_off(0, 60)),
            (960, note_off(0, 60)),
        ]
        data = smf([track(msgs)])
        # the first off closes the earliest open note
        assert parse_midi(data) == EventSequence([Event(0, 75, 60), Event(50, 50, 60)])

    def test_unpaired_note_on_clamped(self, caplog):
        msgs = [TEMPO_120, (0, note_on(0, 60)), (960, bytes.fromhex("ff0100"))]
        data = smf([track(msgs)])
        with caplog.at_level("WARNING"):
            seq = parse_midi(data)
        assert seq == EventSequence([Event(0, 100, 60)])
        assert "unpaired" in caplog.text

    def test_stray_note_off_ignored(self, caplog):
        data = smf([track([TEMPO_120, (0, note_off(0, 60))])])
        with caplog.at_level("WARNING"):
            assert parse_midi(data) == EventSequence()

    def test_ties_keep_file_order(self):
        msgs = [TEMPO_120, (0, note_on(0, 64)), (0, note_on(0, 60)), (480, note_off(0, 64)), (480, note_off(0, 60))]
        data = smf([track(msgs)])
        assert [e.note for e in parse_midi(data)] == [64, 60]

    def test_smpte_division(self):
        # 30 fps x 80 ticks/frame = 2400 ticks/second
        division = ((256 - 30) << 8) | 80
        data = smf([track([(0, note_on(0, 60)), (2400, note_off(0, 60))])], division=division)
        assert parse_midi(data) == EventSequence([Event(0, 100, 60)])

    def test_duration_clamped_at_10s(self):
        data = smf([track([TEMPO_120, (0, note_on(0, 60)), (960 * 15, note_off(0, 60))])])
        assert parse_midi(data) == EventSequence([Event(0, 999, 60)])


class TestParseErrors:
    def test_not_midi(self):
        with pytest.raises(MidiParseError) as err:
            parse_midi(b"RIFFxxxx")
        assert err.value.offset == 0

    def test_truncated(self):
        data = smf([track([TEMPO_120])])
        with pytest.raises(MidiParseError):
            parse_midi(data[:-4])

    def test_format_2_rejected(self):
        with pytest.raises(MidiParseError):
            parse_midi(smf([track([TEMPO_120])], fmt=2))

    def test_bad_track_magic(self):
        data = smf([b"MTrX" + (0).to_bytes(4, "big")])
        with pytest.raises(MidiParseError):
            parse_midi(data)

    def test_data_byte_with_top_bit_set(self):
        # a corrupted note-on pitch byte (182) once escaped as a bare ValueError
        data = bytearray(write_midi(golden.twinkle_events()))
        pitch = data.index(bytes([0x90, 60])) + 1
        data[pitch] = 182
        with pytest.raises(MidiParseError) as err:
            parse_midi(bytes(data))
        assert err.value.offset == pitch


class TestWrite:
    def test_empty_sequence_is_valid_file(self):
        data = write_midi(EventSequence())
        assert parse_midi(data) == EventSequence()

    def test_twinkle_roundtrip(self):
        twinkle = golden.twinkle_events()
        assert parse_midi(write_midi(twinkle)) == twinkle

    def test_channel_allocation(self):
        seq = EventSequence(
            [
                Event(0, 50, encode_note(0, 60)),
                Event(0, 50, encode_note(24, 60)),
                Event(0, 50, encode_note(DRUM_INSTRUMENT, 36)),
            ]
        )
        data = write_midi(seq)
        # drums on channel 10 (0-indexed 9); programs 0 and 24 on distinct channels
        assert bytes([0x99, 36, 64]) in data
        assert bytes([0xC0, 0]) in data and bytes([0xC1, 24]) in data
        assert parse_midi(data) == seq

    def test_rests_dropped(self):
        from anticipate.events import REST

        seq = EventSequence([Event(0, 50, 60), Event(10, 0, REST), Event(20, 50, 61)])
        assert parse_midi(write_midi(seq)) == seq.without_rests()

    def test_sixteen_parts_with_drums_fit(self):
        events = [Event(i, 10, encode_note(k, 60)) for i, k in enumerate(range(15))]
        events.append(Event(20, 10, encode_note(DRUM_INSTRUMENT, 40)))
        seq = EventSequence(events)
        assert parse_midi(write_midi(seq)) == seq

    def test_too_many_melodic_instruments(self):
        seq = EventSequence(Event(i, 10, encode_note(k, 60)) for i, k in enumerate(range(16)))
        with pytest.raises(ChannelCapacityError):
            write_midi(seq)

    def test_roundtrip_property(self, rng):
        for _ in range(200):
            seq = random_events(
                rng,
                int(rng.integers(0, 80)),
                n_instruments=int(rng.integers(1, 6)),
                avoid_note_overlap=True,
            )
            assert parse_midi(write_midi(seq)) == seq


class TestSplits:
    def test_hex_partition_exhaustive(self):
        for digit in "0123456789abcd":
            assert split_for_digest(digit + "0" * 31) == "train"
        assert split_for_digest("e" + "0" * 31) == "valid"
        assert split_for_digest("f" + "0" * 31) == "test"

    def test_expected_proportions(self, rng):
        import hashlib

        counts = {"train": 0, "valid": 0, "test": 0}
        n = 20_000
        for i in range(n):
            digest = hashlib.md5(str(i).encode()).hexdigest()
            counts[split_for_digest(digest)] += 1
        assert counts["train"] / n == pytest.approx(14 / 16, abs=0.01)
        assert counts["valid"] / n == pytest.approx(1 / 16, abs=0.005)
        assert counts["test"] / n == pytest.approx(1 / 16, abs=0.005)


class TestFilters:
    def test_too_short_events(self, rng):
        seq = random_events(rng, 99, max_gap=50)
        assert check_sequence(seq, CorpusFilters()) == "too-short-events"

    def test_hundred_events_pass(self, rng):
        seq = random_events(rng, 100, max_gap=50, max_duration=200)
        assert check_sequence(seq, CorpusFilters()) is None

    def test_too_short_duration(self):
        seq = EventSequence([Event(i, 1, 60) for i in range(120)])
        assert check_sequence(seq, CorpusFilters()) == "too-short-duration"

    def test_too_long(self):
        # 61 minutes
        seq = EventSequence(Event(i * 2000, 10, 60) for i in range(61 * 3600 // 20))
        assert check_sequence(seq, CorpusFilters()) == "too-long"

    def test_too_many_parts(self):
        seq = EventSequence(Event(i * 100, 10, encode_note(k, 60)) for i, k in enumerate(range(17)))
        assert check_sequence(seq, CorpusFilters(min_events=1, min_seconds=0)) == "too-many-parts"


class TestPreprocess:
    @pytest.fixture
    def corpus_dir(self, tmp_path, rng) -> Path:
        src = tmp_path / "midi"
        src.mkdir()
        for i in range(8):
            seq = random_events(rng, 150, max_gap=30, max_duration=150, avoid_note_overlap=True)
            (src / f"song_{i}.mid").write_bytes(write_midi(seq))
        (src / "tiny.mid").write_bytes(write_midi(EventSequence([Event(0, 50, 60)])))
        (src / "broken.mid").write_bytes(b"not a midi file")
        (src / "notes.txt").write_text("ignored")
        return src

    def test_manifest_accounts_for_every_file(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        manifest = preprocess_corpus(corpus_dir, out)
        assert len(manifest.entries) == 10
        assert len(manifest.accepted()) + len(manifest.rejected()) == 10
        reasons = {e.file_id: e.reason for e in manifest.rejected()}
        assert reasons["broken.mid"] == "unparseable"
        assert reasons["tiny.mid"] == "too-short-events"

    def test_split_files_written_and_readable(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        manifest = preprocess_corpus(corpus_dir, out)
        n_written = 0
        for split in ("train", "valid", "test"):
            with open(out / f"{split}.txt") as f:
                seqs = read_events(f)
            n_written += len(seqs)
            assert len(seqs) == sum(1 for e in manifest.accepted() if e.split == split)
        assert n_written == len(manifest.accepted())

    def test_sequences_start_normalized(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        preprocess_corpus(corpus_dir, out)
        for split in ("train", "valid", "test"):
            with open(out / f"{split}.txt") as f:
                for seq in read_events(f):
                    assert min(i.event.time for i in seq) == 0

    def test_manifest_roundtrip(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        manifest = preprocess_corpus(corpus_dir, out)
        with open(out / "manifest.tsv") as f:
            loaded = CorpusManifest.read(f)
        assert loaded == manifest

    def test_split_matches_md5(self, corpus_dir, tmp_path):
        import hashlib

        manifest = preprocess_corpus(corpus_dir, tmp_path / "out")
        for entry in manifest.entries:
            if entry.reason == "unreadable":
                continue
            digest = hashlib.md5((corpus_dir / entry.file_id).read_bytes()).hexdigest()
            assert entry.md5 == digest
            assert entry.split == split_for_digest(digest)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            preprocess_corpus(tmp_path / "nope", tmp_path / "out")
