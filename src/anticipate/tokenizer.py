"""Bidirectional codecs between event sequences and integer token sequences,
plus packing of token streams into fixed-length training examples.

Arrival codec: one (time, duration, note) triple per event, absolute times.
Controls use the shifted vocabulary ranges; a separator is a triple of SEP
tokens. Interarrival codec: onset/offset tokens with gap tokens in between
(zero gaps omitted, a gap over 9.99 s split into several gap tokens that the
decoder sums); a separator is a single SEP.
Its decoder pairs offsets with onsets by the note-pairing rule MIDI parsing
uses (:func:`anticipate.events._pair_notes`).

This module is the only one that knows the arrival token layout and its
grammar: one array encoder and its array inverse, the token ranges of each
slot of a sampled triple, that triple's decode, a row's leading control code
and each token's role. Encoding builds the triples of a sequence, a packed
stream or a sampler context from the time, duration, note and control rows
and checks only their times, with array operations; the first item outside
the token range fails with its index. No sequence holds a rest as a control
(:mod:`anticipate.events` refuses one). Decoding classifies every triple
with range masks, fails at the first malformed one, and splits the decoded
columns at the separator triples; no event object is built.

Every model context is relativized by one rule: its times are shifted by the
minimum time of its items, so the context starts at zero and distinct times
stay distinct. Packing slices the triple stream into windows of 341 triples,
prepends the global control code, and relativizes each window's leading
(possibly partial) sequence segment by its minimum time; nothing is clamped.
Sequences that begin after an in-window separator keep their own times, which
already start at zero for preprocessed corpora. Windows whose times cannot be
represented in the 100-second token range are discarded, the packer's one rule.
"""

from __future__ import annotations

import functools
import logging
import operator
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .events import (
    MAX_DURATION_UNITS, MAX_TIME_UNITS, REST, EventSequence, InterleavedSequence, _check_added,
    _first_drop, _note_order, _pair_notes,
)
from .vocab import CODEC_VOCABS
from .vocab import ArrivalVocab as AV
from .vocab import InterarrivalVocab as IV

log = logging.getLogger(__name__)

CONTEXT_LENGTH = 1024  # tokens per training example, including the control code


class TokenError(ValueError):
    """Malformed or out-of-range token data; ``index`` locates the offender."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"{message} (index {index})")
        self.index = index


def _as_interleaved(seq: InterleavedSequence | EventSequence) -> InterleavedSequence:
    if isinstance(seq, EventSequence):
        return InterleavedSequence.from_events(seq)
    return seq


def _relativize_sequence(
    seq: InterleavedSequence | EventSequence,
) -> InterleavedSequence | EventSequence:
    """Shift a whole sequence by its minimum time so it starts at time zero."""
    if not len(seq) or (offset := seq.columns[0].min()) == 0:
        return seq
    columns = seq.columns.copy()
    columns[0] -= offset
    return seq._of(columns)


def _arrival_triples(columns: np.ndarray, offset: int | np.ndarray = 0) -> np.ndarray:
    """The (n, 3) arrival triples of ``columns``, times relativized by ``offset``
    (a scalar or one offset per item).

    Only times are checked, all at once: the first item past the token range
    raises ``TokenError``, or a negative one a bare ``ValueError``, with its
    index in ``columns``. A rest is never a control, so its token is not shifted.
    """
    time, duration, note, control = columns
    times = time - offset
    invalid = (times < 0) | (times >= AV.DUR_BASE)
    if invalid.any():
        i = int(invalid.argmax())
        if times[i] >= AV.DUR_BASE:
            raise TokenError(f"event time {times[i]} exceeds the 100s token range", i)
        raise ValueError(f"time {times[i]} outside [0, {MAX_TIME_UNITS - 1}]")
    shift = control * AV.CONTROL_OFFSET
    triples = np.empty((len(times), 3), dtype=np.int64)
    triples[:, 0] = times + (AV.TIME_BASE + shift)
    triples[:, 1] = duration + (AV.DUR_BASE + shift)
    triples[:, 2] = np.where(note == REST, AV.REST, note + (AV.NOTE_BASE + shift))
    return triples


def encode_arrival(
    seq: InterleavedSequence | EventSequence,
    *,
    z: int | None = None,
) -> list[int]:
    """Encode an interleaved sequence as arrival-codec tokens.

    A control code ``z`` (AR or AAR) prepends the training-example preamble:
    ``z`` and one SEP triple. By default the raw 3-per-item token list is
    returned. Its ints are the process-wide shared ones (``_shared_ints``).
    """
    tokens: list[int] = []
    if z is not None:
        if z not in (AV.AR, AV.AAR):
            raise TokenError(f"control code must be AR or AAR, got {z}")
        tokens.extend([z, AV.SEP, AV.SEP, AV.SEP])
    tokens.extend(_shared_ints(_arrival_triples(_as_interleaved(seq).columns).ravel()))
    return tokens


def _token_array(toks: list[int], size: int) -> np.ndarray:
    """``toks`` as int64; a token past int64 is outside the vocabulary and reads as -1."""
    try:
        return np.asarray(toks, dtype=np.int64)
    except OverflowError:
        objects = np.asarray(toks, dtype=object)
        return np.where((objects >= 0) & (objects < size), objects, -1).astype(np.int64)


def _slot_ranges(min_time: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The ``[lo, hi)`` token ranges each slot of a sampled plain triple may
    hold: a time from ``min_time`` or SEP, a duration, a note or REST."""
    return (((AV.TIME_BASE + min_time, AV.DUR_BASE), (AV.SEP, AV.SEP + 1)),
            ((AV.DUR_BASE, AV.NOTE_BASE),),
            ((AV.NOTE_BASE, AV.REST + 1),))


def _decode_triple(time_tok: int, duration_tok: int, note_tok: int,
                   offset: int) -> tuple[tuple[int, int, int], list[int]]:
    """An unchecked plain triple's (time, duration, note), time shifted by
    ``offset``, and its context tokens; a rest's duration, which a model may
    draw as any duration token, reads as zero."""
    time = time_tok - AV.TIME_BASE + offset
    if note_tok == AV.REST:
        return (time, 0, REST), [time_tok, AV.DUR_BASE, note_tok]
    return ((time, duration_tok - AV.DUR_BASE, note_tok - AV.NOTE_BASE),
            [time_tok, duration_tok, note_tok])


def _arrival_body(tokens: Sequence[int]) -> tuple[int, list[int]]:
    """Arrival tokens' control code (AR if none leads them) and the whole
    triples after it; any other count raises ``TokenError``."""
    toks = list(tokens)
    code = toks.pop(0) if toks and toks[0] in (AV.AR, AV.AAR) else AV.AR
    if len(toks) % 3:
        raise TokenError(f"token count {len(toks)} is not a multiple of 3")
    return code, toks


def _classify_triples(toks: list[int], array: np.ndarray) -> tuple:
    """Whole-triple arrival tokens ``toks`` (as int64, ``array``) classified
    with range masks: the time, duration and note token columns, the
    separator, control and rest masks, and the index of the first malformed
    triple (the triple count if none) with its ``TokenError`` (None if none).
    A triple is well formed if it is all SEP, all control (no rest), or a
    plain time and duration with a note, or with REST and a zero duration; an
    AR/AAR code or any other out-of-slot token makes it malformed."""
    a, b, c = array.reshape(-1, 3).T
    sep = (a == AV.SEP) & (b == AV.SEP) & (c == AV.SEP)
    rest = c == AV.REST
    plain = AV.is_plain_time(a) & AV.is_plain_duration(b)
    control = AV.is_control_time(a) & AV.is_control_duration(b) & AV.is_control_note(c)
    valid = sep | control | plain & np.where(rest, b == AV.DUR_BASE, AV.is_plain_note(c))
    if valid.all():
        return a, b, c, sep, control, rest, len(valid), None
    bad = int(valid.argmin())
    first, second, third = triple = toks[3 * bad : 3 * bad + 3]  # the caller's values
    if AV.SEP in triple:
        message = "partial SEP triple"
    elif plain[bad] and rest[bad]:
        message = "rest triple with nonzero duration"
    elif plain[bad]:
        message = f"token {third} is not a note token"
    else:
        message = f"mixed-range triple ({first}, {second}, {third})"
    return a, b, c, sep, control, rest, bad, TokenError(message, bad)


def _scored_row(row: Sequence[int], codec: str,
                size: int) -> tuple[int | None, list[int], np.ndarray]:
    """A row's control code (AR for an arrival row without one, None for
    interarrival), its tokens after the code, and each token's role: 0-2 its
    triple slot (time, duration, note; every interarrival token but SEP has
    the time slot), 3 SEP, 4 control. Raises ``TokenError`` for a predictor
    vocabulary ``size`` that is not the codec's, then for an arrival row that
    is not whole triples, then for a token outside ``[0, size)``, then for
    the first arrival triple that ``decode_arrival`` calls malformed.
    """
    vocab = CODEC_VOCABS[codec]
    if size != vocab.SIZE:
        raise TokenError(
            f"predictor vocabulary {size} does not match the {codec} vocabulary ({vocab.SIZE})")
    code, tokens = _arrival_body(row) if codec == "arrival" else (None, list(row))
    array = _token_array(tokens, size)
    outside = (array < 0) | (array >= size)
    if outside.any():
        i = int(outside.argmax())
        raise TokenError(f"token {tokens[i]} at position {i} "
                         f"outside the predictor's vocabulary of size {size}")
    if codec != "arrival":
        return None, tokens, np.where(array == vocab.SEP, 3, 0)
    _, _, _, sep, control, _, _, malformed = _classify_triples(tokens, array)
    if malformed is not None:
        raise malformed
    return code, tokens, np.where(sep[:, None], 3, np.where(control[:, None], 4, [0, 1, 2])).ravel()


def decode_arrival(tokens: Sequence[int]) -> list[InterleavedSequence]:
    """Decode arrival-codec tokens into sequence segments.

    An optional leading control code (AR/AAR) is skipped. SEP triples are
    segment boundaries; a boundary at the very start marks a fresh sequence
    rather than producing an empty leading segment. The first triple that is
    malformed, or whose time is earlier than the item before it in its own
    stream (plain or control) and segment, raises ``TokenError`` with its
    triple index.
    """
    _, toks = _arrival_body(tokens)
    array = _token_array(toks, AV.SIZE)
    a, b, c, sep, control, rest, bad, malformed = _classify_triples(toks, array)
    shift = control * AV.CONTROL_OFFSET
    time = a - shift - AV.TIME_BASE
    # before the first malformed triple, the first item earlier than the one
    # before it in its own stream and segment; SEP triples form one stream
    i = _first_drop(time[:bad], np.where(sep, -1, 2 * np.cumsum(sep) + control)[:bad])
    if i is not None:
        kind = "control" if control[i] else "plain event"
        raise TokenError(f"{kind} time {time[i]} is earlier than the one before it in its stream", i)
    if malformed is not None:
        raise malformed

    columns = np.stack([time, b - shift - AV.DUR_BASE,
                        np.where(rest, REST, c - shift - AV.NOTE_BASE), control])[:, ~sep]
    # a separator splits before the items that follow it; one at the very
    # start opens the first segment instead
    seps = np.flatnonzero(sep)
    bounds = (seps - np.arange(len(seps)))[seps > 0]
    return [InterleavedSequence._of(part) for part in np.split(columns, bounds, axis=1)]


def encode_interarrival(
    seq: EventSequence | InterleavedSequence, *, leading_sep: bool = False
) -> list[int]:
    """Encode plain events as interarrival-codec tokens.

    Each event expands to an onset at ``t`` and an offset at ``t + d``, in
    the note order the MIDI writer uses (:func:`anticipate.events._note_order`).
    A gap over 999 units is written as several gap tokens, so no time is
    lost; past ``MAX_ADDED_ITEMS`` extra gap tokens raise ``TokenError``.
    Control-tagged input and rests are not supported by this codec. The
    tokens are the process-wide shared ints (``_shared_ints``).
    """
    if isinstance(seq, InterleavedSequence):
        if seq.has_controls:
            raise TokenError("interarrival codec does not support control events")
        seq = seq.events()
    time, duration, note = seq.columns
    rests = np.flatnonzero(note == REST)
    if rests.size:
        raise TokenError("interarrival codec does not support rest events", int(rests[0]))
    order, item_time = _note_order(time, duration)
    codes = np.column_stack([note + IV.ONSET_BASE, note + IV.OFFSET_BASE]).ravel()[order]
    # every item's token, then the gap to the next item as gap tokens of
    # 999 and the remainder unless it is zero
    full, rest = np.divmod(np.diff(item_time, append=item_time[-1:]), IV.ONSET_BASE - 1)
    _check_added(int(full.sum()), "extra gap tokens", TokenError)
    count = 1 + full + (rest > 0)
    start = np.cumsum(count) - count
    tokens = np.full(count.sum(), IV.ONSET_BASE - 1)
    tokens[start] = codes
    tokens[(start + count - 1)[rest > 0]] = rest[rest > 0]
    return ([IV.SEP] if leading_sep else []) + _shared_ints(tokens)


def decode_interarrival(tokens: Sequence[int]) -> EventSequence:
    """Decode interarrival-codec tokens back to events.

    Offsets pair with onsets by the one note-pairing rule
    (:func:`anticipate.events._pair_notes`): an offset closes the earliest
    open onset of its note, and onsets still open at the end close there.
    Leading or trailing SEP tokens are skipped. The first interior SEP,
    out-of-vocabulary token or offset without an open onset raises
    ``TokenError`` with its index in ``tokens``.
    """
    toks = list(tokens)
    array = _token_array(toks, IV.SIZE)
    sep = array == IV.SEP
    edge = np.logical_and.accumulate(sep) | np.logical_and.accumulate(sep[::-1])[::-1]
    gap, note = IV.is_gap(array), IV.is_onset(array) | IV.is_offset(array)
    at = np.flatnonzero(note)
    onset = IV.is_onset(array[at])
    notes = array[at] - np.where(onset, IV.ONSET_BASE, IV.OFFSET_BASE)
    ons, closers, strays = _pair_notes(notes, onset)
    bad = np.flatnonzero(~(gap | note | edge))
    if bad.size or strays.size:
        i = min(bad[:1].tolist() + at[strays[:1]].tolist())
        if note[i]:
            raise TokenError(f"offset for note {toks[i] - IV.OFFSET_BASE} without an open onset", i)
        if toks[i] == IV.SEP:
            raise TokenError("unexpected SEP inside a sequence", i)
        raise TokenError(f"token {toks[i]} outside the interarrival vocabulary", i)

    now = np.cumsum(np.where(gap, array, 0))  # the time at each token
    unclosed = closers < 0
    if unclosed.any():
        log.warning("closing %d unclosed onsets at sequence end", int(unclosed.sum()))
    start = now[at[ons]]
    end = np.where(unclosed, now[-1:], now[at[closers]])  # unclosed onsets close at the end
    return EventSequence._of(
        np.stack([start, np.minimum(end - start, MAX_DURATION_UNITS - 1), notes[ons]])
    )


@dataclass(frozen=True)
class TrainingExample:
    """A fixed-length packed example: control code followed by whole triples."""

    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.tokens or self.tokens[0] not in (AV.AR, AV.AAR):
            raise TokenError("training example must start with AR or AAR")
        if (len(self.tokens) - 1) % 3:
            raise TokenError("training example body must be whole triples")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class PackResult:
    examples: list[TrainingExample] = field(default_factory=list)
    n_discarded: int = 0  # windows whose time span exceeds the token range
    n_clamped_times: int = 0  # always 0: relativizing by the minimum time never goes negative
    n_tail_triples: int = 0  # trailing triples short of a full window


def pack_training_examples(
    sequences: Iterable[InterleavedSequence | EventSequence],
    *,
    context_length: int = CONTEXT_LENGTH,
) -> PackResult:
    """Pack interleaved sequences into fixed-length training examples; a plain
    event sequence packs as an interleaved one without controls.

    Sequences are concatenated with separator triples (one leading separator
    marks the start of the stream) and sliced into windows of whole triples.
    Each window is prefixed by the control code of the first sequence with
    content in the window: AAR when that sequence carries anticipated
    controls, AR otherwise. That sequence's items in the window are shifted
    by their minimum time; a window whose shifted times pass the token range
    is discarded, the packer's one rule. The examples' tuples hold the
    process-wide shared ints (``_shared_ints``).
    """
    if context_length < 4 or (context_length - 1) % 3:
        raise ValueError("context_length must be 1 + a multiple of 3")
    width = (context_length - 1) // 3

    columns = [_as_interleaved(seq).columns for seq in sequences]
    lengths = [c.shape[1] for c in columns]
    # The stream as columns: every sequence is preceded by a separator row
    # (all zeros, marked in ``is_sep``); ``owner`` is each row's sequence.
    rows = np.asarray(lengths, dtype=np.int64) + 1
    owner = np.repeat(np.arange(len(lengths)), rows)
    is_sep = np.zeros(len(owner), dtype=bool)
    is_sep[np.cumsum(rows) - rows] = True
    stream = np.zeros((4, len(owner)), dtype=np.int64)
    stream[:, ~is_sep] = np.concatenate([np.empty((4, 0), dtype=np.int64), *columns], axis=1)
    has_controls = np.bincount(owner, weights=stream[3], minlength=len(lengths)) > 0

    result = PackResult()
    n_windows, result.n_tail_triples = divmod(len(owner), width)
    used = n_windows * width
    windows = stream[:, :used].reshape(4, n_windows, width)
    sep = is_sep[:used].reshape(n_windows, width)
    owners = owner[:used].reshape(n_windows, width)

    # The leading segment (the window's items of its first item's sequence)
    # is relativized by its minimum time; later sequences keep their own times.
    first = owners[np.arange(n_windows), (~sep).argmax(axis=1)]
    leading = (owners == first[:, None]) & ~sep
    offset = np.where(leading, windows[0], np.iinfo(np.int64).max).min(axis=1)
    shift = np.where(leading, offset[:, None], 0)
    z = np.where(leading.any(axis=1) & has_controls[first], AV.AAR, AV.AR)

    kept = np.flatnonzero((windows[0] - shift < MAX_TIME_UNITS).all(axis=1))
    result.n_discarded = n_windows - len(kept)
    triples = _arrival_triples(windows[:, kept].reshape(4, -1), shift[kept].ravel())
    triples[sep[kept].ravel()] = AV.SEP
    tokens = np.column_stack([z[kept], triples.reshape(len(kept), 3 * width)])
    result.examples = [TrainingExample(tuple(row)) for row in _shared_ints(tokens)]
    return result


_HEADER_RE = re.compile(r"#codec=(arrival|interarrival)\s+vocab=(\d+)")


@functools.cache
def _token_texts(codec: str) -> tuple[str, ...]:
    """``str(t)`` for every token ``t`` of the codec's vocabulary, indexed by ``t``."""
    return tuple(str(t) for t in range(_codec_vocab(codec).SIZE))


@functools.cache
def _token_ints() -> np.ndarray:
    """The ints ``0 … max codec SIZE - 1`` as one object array, indexed by token."""
    return np.arange(max(vocab.SIZE for vocab in CODEC_VOCABS.values()), dtype=object)


def _shared_ints(tokens) -> list:
    """``tokens`` (in ``[0, max codec SIZE)``, any shape) as nested lists of
    one shared int object per token id, so a kept row costs a pointer, not an
    int, per token."""
    return _token_ints()[tokens].tolist()


def _codec_vocab(codec: str):
    """The vocabulary of ``codec``; a name that is not a codec raises ``ValueError``."""
    try:
        return CODEC_VOCABS[codec]
    except KeyError:
        raise ValueError(f"unknown codec {codec!r}") from None


def _outside_vocabulary(where: str, row: Sequence[int], codec: str) -> TokenError:
    low, high = min(row), max(row)
    return TokenError(f"{where}: token {low if low < 0 else high} "
                      f"outside the {codec} vocabulary of size {CODEC_VOCABS[codec].SIZE}")


def write_tokens(f: IO[str], rows: Iterable[Sequence[int]], codec: str) -> None:
    """Write token rows (one sequence or example per line) with a codec header.

    Each row's token texts are looked up in a table built once per codec, by
    one ``itemgetter`` call. An empty row (a blank line, which reads as no
    row) or a token outside the codec's vocabulary raises ``TokenError``
    naming its 0-based row; the rows before it are already written.
    """
    texts = _token_texts(codec)
    f.write(f"#codec={codec} vocab={len(texts)}\n")
    for i, row in enumerate(rows):
        if not len(row):
            raise TokenError(f"row {i}: an empty row cannot be written")
        try:
            if min(row) < 0:  # a tuple reads a negative index from its end
                raise IndexError
            line = operator.itemgetter(*row)(texts)  # one index gives a bare str
            f.write((line if len(row) == 1 else " ".join(line)) + "\n")
        except IndexError:
            raise _outside_vocabulary(f"row {i}", row, codec) from None


def _is_plain(text: str) -> bool:
    """Whether ``text`` is ASCII digits separated by single spaces, with no
    space at either end."""
    return (text.isascii() and text[:1].isdigit() and text[-1:].isdigit()
            and "  " not in text and not text.encode().translate(None, b"0123456789 "))


def read_tokens(f: IO[str]) -> tuple[str, list[list[int]]]:
    """Read a token file; returns (codec, rows), each row a list of the
    process-wide shared ints (``_shared_ints``).

    A plain line (``_is_plain``) is parsed by one ``np.fromstring`` and kept
    when its largest token is in the vocabulary. Any other line, or a plain
    line that fails that check, is read field by field with ``int``, so a
    field ``fromstring`` misreads (a sign, ``_``, a non-ASCII digit, a value
    it saturates at 2**63 - 1) reads as ``int`` reads it; blank lines are
    skipped. A non-integer field or a token outside the header codec's
    vocabulary raises ``TokenError`` naming the 1-based line.
    """
    header = f.readline()
    match = _HEADER_RE.fullmatch(header.strip())
    if not match:
        raise TokenError(f"missing or malformed token file header: {header!r}")
    codec, vocab = match.groups()
    size = CODEC_VOCABS[codec].SIZE
    try:
        matches = int(vocab) == size
    except ValueError as exc:  # more digits than ``int`` converts
        raise TokenError(f"vocab size of {len(vocab)} digits does not match codec {codec}") from exc
    if not matches:
        raise TokenError(f"vocab size {vocab} does not match codec {codec}")
    rows = []
    for lineno, line in enumerate(f, start=2):
        text = line.rstrip("\n")
        if _is_plain(text):
            # no sign, so no negative token: a field past int64 saturates high
            array = np.fromstring(text, np.int64, sep=" ")
            if array.max() < size:
                rows.append(_shared_ints(array))
                continue
        fields = line.split()
        if not fields:
            continue
        try:
            row = list(map(int, fields))
        except ValueError as exc:
            raise TokenError(f"line {lineno}: {exc}") from exc
        if min(row) < 0 or max(row) >= size:
            raise _outside_vocabulary(f"line {lineno}", row, codec)
        rows.append(_shared_ints(row))
    return codec, rows
