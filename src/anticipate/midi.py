"""Standard MIDI File parsing and writing.

The parser handles format 0/1 files: note-on/off pairs become quantized
events. Note-ons with velocity zero are note-offs; channel 10 (0-indexed 9)
is the drum kit (instrument 128). Notes pair by the one note-pairing rule,
shared with the interarrival decoder (:func:`anticipate.events._pair_notes`):
a note-off closes the earliest open note of its channel and pitch.

The parser walks the bytes in one loop and collects note, tempo and program
rows; the writer reads a sequence's columns. Neither builds an event object.
A note's seconds and instrument come from change tables by one rule, the
last change at or before its tick (the later in file order at one tick):
tempo changes from 500000 us/quarter, summed span by span in tick order, and
each channel's program changes from program 0. A track must stay below 2**39
ticks, so that a tick span times a 24-bit tempo fits in int64 and every
accepted file parses exactly as it would in Python integers.

The writer emits format-1 files at a fixed 500000 us/quarter and 480
ticks/quarter. At that resolution one 10ms grid unit is 9.6 ticks; the
rounding error stays well under half a grid unit in both directions, so
parse(write(s)) == s for rest-free sequences. Tick rounding keeps grid order
and distinct times distinct, so note-ons and note-offs go in the interarrival
encoder's order (:func:`anticipate.events._note_order`), each delta time
checked as its message is built.
"""

from __future__ import annotations

import logging

import numpy as np

from .events import (
    DRUM_INSTRUMENT, NUM_PITCHES, EventSequence, _note_order, _pair_notes, quantize_duration,
    seconds_to_units,
)

log = logging.getLogger(__name__)

DEFAULT_TEMPO = 500_000  # microseconds per quarter note
WRITE_TICKS_PER_QUARTER = 480

_CHANNEL_MESSAGE_LENGTH = {
    0x80: 2,  # note off
    0x90: 2,  # note on
    0xA0: 2,  # polyphonic aftertouch
    0xB0: 2,  # control change
    0xC0: 1,  # program change
    0xD0: 1,  # channel aftertouch
    0xE0: 2,  # pitch bend
}


_END = "unexpected end of data"


class MidiParseError(ValueError):
    """Malformed MIDI data; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ChannelCapacityError(ValueError):
    """More distinct instruments than MIDI channels can carry."""


class DeltaTimeError(ValueError):
    """A note farther from the message before it than a MIDI delta time reaches."""


MAX_DELTA_TICKS = 2**28 - 1  # the largest 4-byte variable-length quantity
# Ticks stay below 2**39, so a tick span times a 24-bit tempo fits in int64.
_TICK_BITS = 39


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The variable-length quantity (at most 4 bytes) at ``pos``, and the
    position after it."""
    value = 0
    for pos in range(pos, pos + 4):
        if pos >= len(data):
            raise MidiParseError(_END, pos)
        byte = data[pos]
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos + 1
    raise MidiParseError("variable-length quantity too long", pos + 1)


def _in_effect(changes: list[tuple[int, int]], at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, value) changes in file order as a (2, n) table sorted stably by
    key, and the index in it of the change in effect at each key in ``at``:
    the last at or before it wins, so the later in file order of a tie."""
    table = np.array(changes, dtype=np.int64).T
    table = table[:, np.argsort(table[0], kind="stable")]
    return table, table[0].searchsorted(at, "right") - 1


def parse_midi(data: bytes) -> EventSequence:
    """Parse a format-0/1 Standard MIDI File into a quantized event sequence.

    Note-ons and note-offs of all tracks, ordered by tick with file order
    breaking ties, pair by the one note-pairing rule
    (:func:`anticipate.events._pair_notes`) keyed by channel and pitch.
    Events are sorted by time with the original file order breaking ties.
    Unpaired note-ons are closed at the end of the file (duration capped at
    10 s) and counted as warnings, as are note-offs that close nothing.
    """
    size = len(data)
    if data[:4] != b"MThd":
        raise MidiParseError(_END if size < 4 else "not a MIDI file (missing MThd)", 0)
    if size < 8:
        raise MidiParseError(_END, 4)
    header_length = int.from_bytes(data[4:8], "big")
    if header_length < 6:
        raise MidiParseError(f"bad header length {header_length}", 4)
    if size < 8 + header_length:  # the first 2-byte field cut short, or else the extra bytes
        raise MidiParseError(_END, min(size & ~1, 14))
    fmt, ntrks, division = (int.from_bytes(data[at : at + 2], "big") for at in (8, 10, 12))
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported MIDI format {fmt}", 8)

    notes: list[tuple[int, int, bool]] = []  # (tick, channel << 7 | pitch, on), file order
    tempo_changes: list[tuple[int, int]] = []
    programs: list[tuple[int, int]] = []  # (channel << _TICK_BITS | tick, program), file order
    max_tick = 0

    pos = 8 + header_length
    for _ in range(ntrks):
        chunk = pos
        if data[pos : pos + 4] != b"MTrk":
            raise MidiParseError(_END if pos + 4 > size else "expected MTrk chunk", pos)
        if pos + 8 > size:
            raise MidiParseError(_END, pos + 4)
        end = pos + 8 + int.from_bytes(data[pos + 4 : pos + 8], "big")
        if end > size:
            raise MidiParseError("track length overruns file", pos + 4)
        pos += 8
        tick = 0
        running_status: int | None = None
        while pos < end:
            delta, pos = _read_varint(data, pos)
            tick += delta
            if pos >= size:
                raise MidiParseError(_END, pos)
            status = data[pos]
            if status < 0x80:
                if running_status is None:
                    raise MidiParseError("data byte without running status", pos)
                status = running_status
            else:
                pos += 1
            if status in (0xFF, 0xF0, 0xF7):  # a meta event, led by its type byte, or a sysex
                running_status = None
                meta = status == 0xFF
                if meta and pos >= size:
                    raise MidiParseError(_END, pos)
                length, start = _read_varint(data, pos + meta)
                if start + length > size:
                    raise MidiParseError(_END, start)
                if meta and data[pos] == 0x51 and length == 3:
                    tempo_changes.append((tick, int.from_bytes(data[start : start + 3], "big")))
                pos = start + length
            elif status >= 0xF0:
                raise MidiParseError(f"unsupported status byte 0x{status:02x}", pos - 1)
            else:
                running_status = status
                kind = status & 0xF0
                length = _CHANNEL_MESSAGE_LENGTH[kind]
                if pos + length > size:
                    raise MidiParseError(_END, pos)
                for at in range(pos, pos + length):
                    if data[at] > 0x7F:
                        raise MidiParseError(f"data byte 0x{data[at]:02x} has its top bit set", at)
                if kind in (0x80, 0x90):  # keyed by channel and pitch
                    key = (status & 0x0F) << 7 | data[pos]
                    notes.append((tick, key, kind == 0x90 and data[pos + 1] > 0))
                elif kind == 0xC0:  # keyed by channel, then tick
                    programs.append(((status & 0x0F) << _TICK_BITS | tick, data[pos]))
                pos += length
        if tick >> _TICK_BITS:
            raise MidiParseError(f"track reaches tick {tick}, past 2**{_TICK_BITS} - 1", chunk)
        max_tick = max(max_tick, tick)  # ticks only grow along a track
        pos = end

    # Seconds are tick spans times the tempo in effect (us per quarter) over
    # ``scale``; an SMPTE division is one unit tempo over its ticks per second.
    if division & 0x8000:  # frames per second (1-128) times ticks per frame
        if not division & 0xFF:
            raise MidiParseError("invalid SMPTE division", 12)
        tempo_changes, scale = [(0, 1)], (256 - (division >> 8)) * (division & 0xFF)
    else:
        if division == 0:
            raise MidiParseError("zero ticks per quarter note", 12)
        tempo_changes, scale = [(0, DEFAULT_TEMPO), *tempo_changes], 1e6 * division

    table = np.array(notes, dtype=np.int64).reshape(-1, 3)
    order = np.argsort(table[:, 0], kind="stable")  # by tick, file order breaking ties
    ticks, keys, on = table[order].T
    ons, closers, strays = _pair_notes(keys, on.astype(bool))
    if unpaired := int((closers < 0).sum()):
        log.warning("closing %d unpaired note-ons at end of file", unpaired)
    if strays.size:
        log.warning("ignored %d note-offs without a matching note-on", strays.size)

    on_ticks, keys = ticks[ons], keys[ons]
    at = np.concatenate([on_ticks, np.where(closers < 0, max_tick, ticks[closers])])
    tempo, i = _in_effect(tempo_changes, at)
    # the seconds at each change: the spans before it, summed in tick order
    starts = np.concatenate([[0.0], np.cumsum(np.diff(tempo[0]) * tempo[1, :-1] / scale)])
    on_seconds, off_seconds = np.split(starts[i] + (at - tempo[0, i]) * tempo[1, i] / scale, 2)
    channel = keys >> 7
    defaults = [(c << _TICK_BITS, 0) for c in range(16)]  # program 0 from tick 0
    program, i = _in_effect(defaults + programs, channel << _TICK_BITS | on_ticks)
    instrument = np.where(channel == 9, DRUM_INSTRUMENT, program[1, i])
    columns = np.stack([seconds_to_units(on_seconds),
                        quantize_duration(off_seconds - on_seconds),
                        NUM_PITCHES * instrument + (keys & 0x7F)])
    return EventSequence._of(columns[:, np.lexsort((order[ons], columns[0]))])


def _varint(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track_chunk(messages: list[tuple[int, bytes]]) -> bytes:
    """Assemble delta-encoded track bytes from (tick, message) pairs."""
    body = bytearray()
    previous = 0
    for tick, message in messages:
        body += _varint(tick - previous)
        body += message
        previous = tick
    body += _varint(0) + b"\xff\x2f\x00"  # end of track
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def write_midi(seq: EventSequence) -> bytes:
    """Write events as a format-1 MIDI file; rests are dropped.

    Drums go on channel 10; other instruments are assigned channels in order
    of first appearance. More than 15 distinct non-drum instruments exceed
    the available channels, and a note more than 2**28 - 1 ticks (about 77.7
    hours) after the message before it exceeds a delta time: both raise.
    """
    columns = seq.without_rests().columns
    time, duration, note = columns.tolist()
    instrument = [n // NUM_PITCHES for n in note]
    melodic = [k for k in dict.fromkeys(instrument) if k != DRUM_INSTRUMENT]  # first appearance
    if len(melodic) > 15:
        raise ChannelCapacityError(
            "more than 15 distinct non-drum instruments cannot share one file"
        )
    channel_of = {DRUM_INSTRUMENT: 9, **dict(zip(melodic, [c for c in range(16) if c != 9]))}

    # each program change at tick 0, in channel order, then the notes' ons and offs
    messages = [(0, bytes([0xC0 | channel_of[k], k])) for k in melodic]
    previous = 0
    order, units = _note_order(columns[0], columns[1])
    for item, at in zip(order.tolist(), units.tolist()):
        i, off = divmod(item, 2)
        tick = (at * 96 + 5) // 10  # 9.6 ticks per grid unit at 480 tpq, 500000 us/quarter
        if tick - previous > MAX_DELTA_TICKS:
            raise DeltaTimeError(
                f"note {note[i]} at time {time[i]} with duration {duration[i]} is "
                f"{tick - previous} ticks after the MIDI message before it; "
                f"a delta time reaches at most {MAX_DELTA_TICKS}"
            )
        status = (0x80 if off else 0x90) | channel_of[instrument[i]]
        messages.append((tick, bytes([status, note[i] % NUM_PITCHES, 0 if off else 64])))
        previous = tick

    tempo_track = _track_chunk([(0, b"\xff\x51\x03" + DEFAULT_TEMPO.to_bytes(3, "big"))])
    note_track = _track_chunk(messages)
    header = b"MThd" + (6).to_bytes(4, "big")
    header += (1).to_bytes(2, "big") + (2).to_bytes(2, "big")
    header += WRITE_TICKS_PER_QUARTER.to_bytes(2, "big")
    return header + tempo_track + note_track
