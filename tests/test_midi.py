"""MIDI parsing/writing against hand-assembled files, and corpus filters."""

from __future__ import annotations

import csv
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from anticipate import golden
from anticipate.corpus import (
    MANIFEST_HEADER,
    ManifestEntry,
    check_sequence,
    preprocess_corpus,
    split_for_digest,
)
from anticipate.eventio import read_events
from anticipate.events import (
    DRUM_INSTRUMENT, REST, Event, EventSequence, encode_note, quantize_duration, seconds_to_units,
)
from anticipate.midi import (
    _CHANNEL_MESSAGE_LENGTH, DEFAULT_TEMPO, MAX_DELTA_TICKS, ChannelCapacityError, DeltaTimeError,
    MidiParseError, parse_midi, write_midi,
)

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

    def test_same_time_ties_keep_file_order_across_tracks(self):
        # ticks 4 and 3 both quantize to time 0; the first track's note stays first
        first = track([TEMPO_120, (4, note_on(0, 64)), (480, note_off(0, 64))])
        second = track([(3, note_on(0, 60)), (480, note_off(0, 60))])
        assert [e.note for e in parse_midi(smf([first, second]))] == [64, 60]

    def test_smpte_division(self):
        # 30 fps x 80 ticks/frame = 2400 ticks/second
        division = ((256 - 30) << 8) | 80
        data = smf([track([(0, note_on(0, 60)), (2400, note_off(0, 60))])], division=division)
        assert parse_midi(data) == EventSequence([Event(0, 100, 60)])

    def test_duration_clamped_at_10s(self):
        data = smf([track([TEMPO_120, (0, note_on(0, 60)), (960 * 15, note_off(0, 60))])])
        assert parse_midi(data) == EventSequence([Event(0, 999, 60)])

    def test_tempo_change_at_tick_0_replaces_the_default(self):
        # 480 ticks at 1 s/quarter, not the default 0.5 s
        slow = (0, bytes.fromhex("ff5103") + (1_000_000).to_bytes(3, "big"))
        data = smf([track([slow, (0, note_on(0, 60)), (480, note_off(0, 60))])])
        assert parse_midi(data) == EventSequence([Event(0, 100, 60)])

    @pytest.mark.parametrize("programs, expected", [((10, 20), 20), ((20, 10), 10)])
    def test_same_tick_program_changes_last_in_file_order_wins(self, programs, expected):
        first, second = (track([(0, bytes([0xC0, p]))]) for p in programs)
        notes = track([(0, note_on(0, 60)), (480, note_off(0, 60))])
        data = smf([first, second, notes])
        assert parse_midi(data) == EventSequence([Event(0, 50, encode_note(expected, 60))])


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

    def test_smpte_zero_ticks_per_frame(self):
        division = (256 - 30) << 8
        with pytest.raises(MidiParseError, match="invalid SMPTE division") as err:
            parse_midi(smf([track([(0, note_on(0, 60)), (1, note_off(0, 60))])], division=division))
        assert err.value.offset == 12

    @pytest.mark.parametrize("data, message", [
        (b"MThd" + (5).to_bytes(4, "big") + bytes(5), "bad header length 5 (byte offset 4)"),
        (smf([track([TEMPO_120])], division=0), "zero ticks per quarter note (byte offset 12)"),
        (smf([track([(0, bytes([0xF1]))])]), "unsupported status byte 0xf1 (byte offset 23)"),
    ])
    def test_refused_header_fields_and_status_bytes(self, data, message):
        with pytest.raises(MidiParseError, match=f"^{re.escape(message)}$"):
            parse_midi(data)

    def test_data_byte_with_top_bit_set(self):
        # a corrupted note-on pitch byte (182) once escaped as a bare ValueError
        data = bytearray(write_midi(golden.twinkle_events()))
        pitch = data.index(bytes([0x90, 60])) + 1
        data[pitch] = 182
        with pytest.raises(MidiParseError) as err:
            parse_midi(bytes(data))
        assert err.value.offset == pitch


# -- the pairing rule against the per-note reference --------------------------


class _Reader:
    """The byte reader the parser's single loop replaced: one method call
    per field, so its error offsets are the reference's own."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MidiParseError("unexpected end of data", self.pos)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def varint(self) -> int:
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError("variable-length quantity too long", self.pos)


class _TempoMap:
    """The reference's piecewise tick-to-seconds clock, one note at a time."""

    def __init__(self, ticks_per_quarter: int, changes: list[tuple[int, int]]):
        # changes: (tick, us_per_quarter), merged across tracks in file order
        merged: dict[int, int] = {0: DEFAULT_TEMPO}
        for tick, tempo in changes:
            merged[tick] = tempo  # last change at a tick wins
        self.ticks = sorted(merged)
        self.tempos = [merged[t] for t in self.ticks]
        self.seconds = [0.0]
        for i in range(1, len(self.ticks)):
            span = self.ticks[i] - self.ticks[i - 1]
            self.seconds.append(
                self.seconds[i - 1] + span * self.tempos[i - 1] / (1e6 * ticks_per_quarter)
            )
        self.ticks_per_quarter = ticks_per_quarter

    def to_seconds(self, tick: int) -> float:
        i = bisect_right(self.ticks, tick) - 1
        span = tick - self.ticks[i]
        return self.seconds[i] + span * self.tempos[i] / (1e6 * self.ticks_per_quarter)


class _SmpteMap:
    """The reference's constant tick-to-seconds clock for SMPTE divisions."""

    def __init__(self, ticks_per_second: float):
        self.ticks_per_second = ticks_per_second

    def to_seconds(self, tick: int) -> float:
        return tick / self.ticks_per_second


@dataclass
class _Note:
    tick: int
    order: int
    channel: int
    pitch: int
    on: bool


def _reference_parse_midi(data: bytes) -> EventSequence:
    """The per-note parser that the shared pairing function replaced: a
    ``_Reader`` over the bytes, a ``_Note`` per message, a list of open notes
    per (channel, pitch) drained from the front, and an ``Event`` per note."""
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise MidiParseError("not a MIDI file (missing MThd)", 0)
    header_length = reader.u32()
    if header_length < 6:
        raise MidiParseError(f"bad header length {header_length}", reader.pos - 4)
    fmt = reader.u16()
    ntrks = reader.u16()
    division = reader.u16()
    reader.take(header_length - 6)
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported MIDI format {fmt}", 8)

    notes, tempo_changes, programs = [], [], []
    order = 0
    max_tick = 0
    for _ in range(ntrks):
        chunk_start = reader.pos
        if reader.take(4) != b"MTrk":
            raise MidiParseError("expected MTrk chunk", chunk_start)
        length = reader.u32()
        end = reader.pos + length
        if end > len(data):
            raise MidiParseError("track length overruns file", chunk_start + 4)
        tick = 0
        running_status = None
        while reader.pos < end:
            tick += reader.varint()
            status = reader.u8()
            if status < 0x80:
                if running_status is None:
                    raise MidiParseError("data byte without running status", reader.pos - 1)
                reader.pos -= 1
                status = running_status
            if status == 0xFF:
                running_status = None
                meta_type = reader.u8()
                meta = reader.take(reader.varint())
                if meta_type == 0x51 and len(meta) == 3:
                    tempo_changes.append((tick, int.from_bytes(meta, "big")))
            elif status in (0xF0, 0xF7):
                running_status = None
                reader.take(reader.varint())
            elif status >= 0xF0:
                raise MidiParseError(f"unsupported status byte 0x{status:02x}", reader.pos - 1)
            else:
                running_status = status
                kind = status & 0xF0
                channel = status & 0x0F
                payload = reader.take(_CHANNEL_MESSAGE_LENGTH[kind])
                for i, byte in enumerate(payload):
                    if byte > 0x7F:
                        raise MidiParseError(f"data byte 0x{byte:02x} has its top bit set",
                                             reader.pos - len(payload) + i)
                if kind in (0x80, 0x90):
                    pitch, velocity = payload[0], payload[1]
                    notes.append(_Note(tick, order, channel, pitch, kind == 0x90 and velocity > 0))
                    order += 1
                elif kind == 0xC0:
                    programs.append((tick, order, channel, payload[0]))
                    order += 1
            max_tick = max(max_tick, tick)
        reader.pos = end

    if division & 0x8000:
        frames = 256 - ((division >> 8) & 0xFF)  # 1-128
        ticks_per_frame = division & 0xFF
        if ticks_per_frame == 0:
            raise MidiParseError("invalid SMPTE division", 12)
        clock = _SmpteMap(frames * ticks_per_frame)
    else:
        if division == 0:
            raise MidiParseError("zero ticks per quarter note", 12)
        clock = _TempoMap(division, sorted(tempo_changes, key=lambda c: c[0]))

    program_map = {}
    for tick, ord_, channel, program in sorted(programs, key=lambda p: (p[0], p[1])):
        program_map.setdefault(channel, []).append((tick, ord_, program))

    def instrument_at(channel, tick):
        if channel == 9:
            return DRUM_INSTRUMENT
        timeline = program_map.get(channel)
        if not timeline:
            return 0
        i = bisect_right(timeline, (tick, float("inf"), 0)) - 1
        return timeline[i][2] if i >= 0 else 0

    def make_event(on_tick, off_tick, channel, pitch):
        on_seconds = clock.to_seconds(on_tick)
        off_seconds = clock.to_seconds(max(off_tick, on_tick))
        return Event(seconds_to_units(on_seconds), quantize_duration(off_seconds - on_seconds),
                     encode_note(instrument_at(channel, on_tick), pitch))

    notes.sort(key=lambda n: (n.tick, n.order))
    open_notes = {}
    finished = []
    for note in notes:
        key = (note.channel, note.pitch)
        if note.on:
            open_notes.setdefault(key, []).append((note.tick, note.order))
        elif queue := open_notes.get(key):
            on_tick, on_order = queue.pop(0)
            finished.append((on_order, make_event(on_tick, note.tick, note.channel, note.pitch)))
    for (channel, pitch), queue in open_notes.items():
        for on_tick, on_order in queue:
            finished.append((on_order, make_event(on_tick, max_tick, channel, pitch)))
    finished.sort(key=lambda item: (item[1].time, item[0]))
    return EventSequence(e for _, e in finished)


def _outcome(data: bytes):
    """Each parser's result, or the type and message of its error; only a
    ``MidiParseError`` may escape."""
    outcomes = []
    for parse in (parse_midi, _reference_parse_midi):
        try:
            outcomes.append(parse(data))
        except MidiParseError as exc:
            outcomes.append((type(exc), str(exc), exc.offset))
    return outcomes


_channels = st.sampled_from([0, 1, 9])
_pitches = st.sampled_from([60, 61]) | st.integers(0, 127)
_messages = st.one_of(
    st.builds(note_on, _channels, _pitches),
    st.builds(note_on, _channels, _pitches),
    st.builds(note_on, _channels, _pitches, st.just(0)),  # velocity 0: an off
    st.builds(note_off, _channels, _pitches),
    st.builds(lambda ch, program: bytes([0xC0 | ch, program]), _channels, st.integers(0, 127)),
    st.integers(1, 2**24 - 1).map(lambda tempo: bytes.fromhex("ff5103") + tempo.to_bytes(3, "big")),
    st.just(bytes.fromhex("b00740")),  # a control change
)
_deltas = st.sampled_from([0, 0, 1, 3, 240, 480]) | st.integers(0, 20_000)
_divisions = st.sampled_from([480, 96, 1]) | st.builds(
    lambda fps, ticks: (256 - fps) << 8 | ticks, st.sampled_from([24, 25, 29, 30]),
    st.sampled_from([4, 40, 80]))  # SMPTE


@st.composite
def midi_files(draw):
    """Files of one to three tracks: same-tick events across tracks,
    overlapping same-pitch notes, tempo and program changes, SMPTE
    divisions, stray note-offs and unpaired note-ons."""
    tracks = []
    for _ in range(draw(st.integers(1, 3))):
        messages, tick = [], 0
        for delta, message in draw(st.lists(st.tuples(_deltas, _messages), max_size=25)):
            tick += delta
            messages.append((tick, message))
        tracks.append(track(messages))
    return smf(tracks, fmt=draw(st.sampled_from([0, 1])), division=draw(_divisions))


@st.composite
def damaged_midi_files(draw):
    """Valid files truncated, with bytes flipped, or with a bad chunk length."""
    data = bytearray(draw(midi_files()))
    damage = draw(st.sampled_from(["truncate", "flip", "length"]))
    if damage == "truncate":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    if damage == "flip":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    lengths = [4] + [m.start() + 4 for m in re.finditer(b"MTrk", data)]
    at = draw(st.sampled_from(lengths))
    data[at : at + 4] = draw(st.integers(0, 64) | st.integers(0, 2**32 - 1)).to_bytes(4, "big")
    return bytes(data)


class TestPairingReference:
    @settings(max_examples=300, deadline=None)
    @given(midi_files())
    def test_matches_per_note_reference(self, data):
        ours, reference = _outcome(data)
        assert ours == reference

    @settings(max_examples=300, deadline=None)
    @given(damaged_midi_files())
    def test_damaged_files_parse_or_raise_midi_parse_error(self, data):
        ours, reference = _outcome(data)
        assert ours == reference

    @pytest.mark.parametrize("body, offset", [
        (bytes([0x81] * 4 + [0x00]), 26),  # a delta time past 4 bytes
        (bytes([0x00, 0xFF, 0x51] + [0x81] * 4 + [0x00]), 29),  # a meta length past 4 bytes
        (bytes([0x00, 0xF0] + [0x81] * 4 + [0x00]), 28),  # a sysex length past 4 bytes
    ])
    def test_overlong_quantities(self, body, offset):
        ours, reference = _outcome(smf([b"MTrk" + len(body).to_bytes(4, "big") + body]))
        assert ours == reference == (MidiParseError,
                                     f"variable-length quantity too long (byte offset {offset})",
                                     offset)

    def test_every_prefix_of_a_file(self):
        # a header two bytes longer than the six it needs, then one track
        header = b"MThd" + (8).to_bytes(4, "big") + bytes([0, 1, 0, 1, 0, 96, 0, 0])
        data = header + track([TEMPO_120, (0, note_on(0, 60)), (96, note_off(0, 60))])
        assert parse_midi(data) == EventSequence([Event(0, 50, 60)])
        for end in range(len(data) + 1):
            ours, reference = _outcome(data[:end])
            assert ours == reference

    @pytest.mark.parametrize("end", [2**39 - 1, 2**39])
    def test_track_bound_under_the_slowest_tempo(self, end):
        # Tempo 0xFFFFFF at one tick per quarter, and tempo changes, program
        # changes and notes up to ``end``: below 2**39 ticks the columns
        # match the exact per-note reference; a track that reaches 2**39
        # ticks is rejected at its chunk.
        slowest = bytes.fromhex("ff5103ffffff")
        messages = [(0, slowest)]
        for k in range(1, end // MAX_DELTA_TICKS + 1):
            tick = k * MAX_DELTA_TICKS
            if k % 512 == 0:
                messages.append((tick, bytes.fromhex("ff5103") + (k * 4099).to_bytes(3, "big")))
            elif k % 700 == 0:
                messages.append((tick, bytes([0xC1, k % 128])))
            elif k % 300 == 0:
                messages.append((tick, note_on(1, k % 128)))
            else:
                messages.append((tick, bytes.fromhex("b00740")))
        messages += [(end - 2, slowest), (end - 1, note_on(0, 60)), (end, note_on(1, 61))]
        first = track([(0, note_on(0, 50)), (1, note_off(0, 50))])
        ours, reference = _outcome(smf([first, track(messages)], division=1))
        if end < 2**39:
            assert ours == reference and len(ours) == 9
        else:
            chunk = 14 + len(first)
            assert ours == (MidiParseError, f"track reaches tick {end}, past 2**39 - 1 "
                            f"(byte offset {chunk})", chunk)

    def test_maximal_deltas_past_int64_tick_products(self):
        # 2 100 maximal deltas under tempo 0xFFFFFF: the note's tick times
        # its tempo passes 2**63 (exact arithmetic puts the note at time
        # 945755861853143), and the track, past 2**39 ticks, is rejected
        far = 2_100 * MAX_DELTA_TICKS
        messages = [(0, bytes.fromhex("ff5103ffffff"))]
        messages += [(k * MAX_DELTA_TICKS, bytes.fromhex("b00740")) for k in range(1, 2_100)]
        messages += [(far, note_on(0, 60)), (far + 1, note_off(0, 60))]
        data = smf([track(messages)], division=1)
        assert len(data) == 14_737
        with pytest.raises(MidiParseError, match=rf"track reaches tick {far + 1}") as err:
            parse_midi(data)
        assert err.value.offset == 14


# -- the columnar writer against the event-walking reference -----------------


def _reference_write_midi(seq: EventSequence) -> bytes:
    """The writer that the columnar one replaced: it walks ``Event`` objects,
    allocates channels event by event and assembles the file with the
    independent ``track``/``smf`` helpers above."""
    playable = [e for e in seq if not e.is_rest]
    channel_of = {}
    free_channels = [c for c in range(16) if c != 9]
    for event in playable:
        instrument = event.instrument
        if instrument in channel_of:
            continue
        if instrument == DRUM_INSTRUMENT:
            channel_of[instrument] = 9
        elif free_channels:
            channel_of[instrument] = free_channels.pop(0)
        else:
            raise ChannelCapacityError(
                "more than 15 distinct non-drum instruments cannot share one file"
            )
    messages = []  # (tick, kind, order, bytes)
    for instrument, channel in sorted(channel_of.items(), key=lambda kv: kv[1]):
        if instrument != DRUM_INSTRUMENT:
            messages.append((0, 0, -1, bytes([0xC0 | channel, instrument])))
    for i, event in enumerate(playable):
        channel = channel_of[event.instrument]
        on_tick = (event.time * 96 + 5) // 10
        off_tick = (event.end * 96 + 5) // 10
        messages.append((on_tick, 2, i, bytes([0x90 | channel, event.pitch, 64])))
        off_kind = 1 if off_tick > on_tick else 2
        messages.append((off_tick, off_kind, i, bytes([0x80 | channel, event.pitch, 0])))
    messages.sort(key=lambda m: (m[0], m[1], m[2]))
    return smf([track([TEMPO_120]), track([(tick, msg) for tick, _, _, msg in messages])])


def _write_outcome(seq: EventSequence):
    """Each writer's bytes, or the type and message of its error."""
    outcomes = []
    for write in (write_midi, _reference_write_midi):
        try:
            outcomes.append(write(seq))
        except ChannelCapacityError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _mostly(common: list, wide):
    """``common`` values two times in three, else the ``wide`` strategy."""
    return st.one_of(st.sampled_from(common), st.sampled_from(common), wide)


_steps = _mostly([0, 5, 5, 10], st.integers(0, 3_000))
_pitches_or_rest = _mostly([60, 60, 61, REST], st.integers(0, 127))
_durations = _mostly([0, 5, 5, 10, 998], st.integers(0, 998))


@st.composite
def writable_sequences(draw):
    """Sequences with rests, drums, zero-length notes, and same-pitch notes
    that touch or overlap (few pitches, durations equal to the common gaps)."""
    palette = draw(st.lists(st.sampled_from([DRUM_INSTRUMENT, 0, 24]) | st.integers(0, 127),
                            min_size=1, max_size=3))
    notes = st.tuples(_steps, st.sampled_from(palette), _pitches_or_rest, _durations)
    events, time = [], 0
    for step, instrument, pitch, duration in draw(st.lists(notes, max_size=30)):
        time += step
        note = REST if pitch == REST else encode_note(instrument, pitch)
        events.append(Event(time, 0 if note == REST else duration, note))
    return EventSequence(events)


class TestWriteReference:
    @settings(max_examples=200, deadline=None)
    @given(writable_sequences())
    def test_matches_event_walking_writer(self, seq):
        ours, reference = _write_outcome(seq)
        assert ours == reference

    @pytest.mark.parametrize("melodic", [15, 16, 17, 30])
    def test_channel_capacity_matches_reference(self, melodic):
        # a drum part first, then one note per melodic instrument
        events = [Event(0, 10, encode_note(DRUM_INSTRUMENT, 36))]
        events += [Event(i, 10, encode_note(k, 60)) for i, k in enumerate(range(melodic))]
        ours, reference = _write_outcome(EventSequence(events))
        assert ours == reference
        assert isinstance(ours, bytes) == (melodic <= 15)


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

    def test_longest_delta_time_roundtrips(self):
        # 27 000 000 units are 259 200 000 ticks, within a 4-byte delta time
        seq = EventSequence([Event(0, 10, 60), Event(27_000_000, 10, 60)])
        assert parse_midi(write_midi(seq)) == seq

    @pytest.mark.parametrize("first", [[], [Event(0, 10, 60)]])
    def test_delta_time_past_four_bytes_names_the_note(self, first):
        # 28 000 000 units are 268 800 000 ticks, past 2**28 - 1: a 5-byte
        # delta time that parse_midi would reject
        seq = EventSequence(first + [Event(28_000_000, 10, 61)])
        with pytest.raises(DeltaTimeError, match="note 61 at time 28000000 with duration 10"):
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

    def test_non_hex_digest_rejected(self):
        with pytest.raises(ValueError, match="^not a hex digest: 'zz'$"):
            split_for_digest("zz")

    def test_empty_digest_rejected(self):
        # "" is a substring of any text, so a bare membership test would call it train
        with pytest.raises(ValueError, match="^not a hex digest: ''$"):
            split_for_digest("")

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
        assert check_sequence(seq) == "too-short-events"

    def test_hundred_events_pass(self, rng):
        seq = random_events(rng, 100, max_gap=50, max_duration=200)
        assert check_sequence(seq) is None

    def test_too_short_duration(self):
        seq = EventSequence([Event(i, 1, 60) for i in range(120)])
        assert check_sequence(seq) == "too-short-duration"

    def test_too_long(self):
        # 61 minutes
        seq = EventSequence(Event(i * 2000, 10, 60) for i in range(61 * 3600 // 20))
        assert check_sequence(seq) == "too-long"

    def test_too_many_parts(self):
        seq = EventSequence(Event(i * 10, 10, encode_note(i % 17, 60)) for i in range(170))
        assert check_sequence(seq) == "too-many-parts"


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
        assert MANIFEST_HEADER == "id\tmd5\tsplit\tevents\tseconds\tparts\treason"
        with open(out / "manifest.tsv", newline="") as f:
            rows = list(csv.DictReader(f, delimiter="\t"))
        assert rows == [
            {"id": e.file_id, "md5": e.md5, "split": e.split, "events": str(e.events),
             "seconds": f"{e.seconds:.2f}", "parts": str(e.parts),
             "reason": "-" if e.reason is None else e.reason}
            for e in manifest.entries
        ]

    def test_split_matches_md5(self, corpus_dir, tmp_path):
        import hashlib

        manifest = preprocess_corpus(corpus_dir, tmp_path / "out")
        for entry in manifest.entries:
            if entry.reason == "unreadable":
                continue
            digest = hashlib.md5((corpus_dir / entry.file_id).read_bytes()).hexdigest()
            assert entry.md5 == digest
            assert entry.split == split_for_digest(digest)

    def test_a_directory_named_like_a_midi_file_is_unreadable(self, corpus_dir, tmp_path):
        before = preprocess_corpus(corpus_dir, tmp_path / "before")
        (corpus_dir / "fake.mid").mkdir()
        after = preprocess_corpus(corpus_dir, tmp_path / "after")
        assert [e for e in after.entries if e.file_id != "fake.mid"] == before.entries
        assert [e for e in after.entries if e.file_id == "fake.mid"] == [
            ManifestEntry("fake.mid", "-", "-", 0, 0.0, 0, "unreadable")]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            preprocess_corpus(tmp_path / "nope", tmp_path / "out")
